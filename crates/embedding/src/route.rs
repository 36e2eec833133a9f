//! Flattened storage for edge routes.
//!
//! A route is the host-cube path assigned to one guest edge, stored as the
//! full node sequence *including both endpoints* (so a dilation-`d` route
//! has `d + 1` nodes and a dilation-1 route has 2). Routes for millions of
//! edges are kept in one arena (`nodes`) with an offsets table, avoiding a
//! heap allocation per edge — the pattern recommended for hot containers in
//! the workspace performance guide.

/// An arena of routes, indexed densely by guest-edge number.
#[derive(Clone, Debug)]
pub struct RouteSet {
    offsets: Vec<u32>,
    nodes: Vec<u64>,
    /// Maintained incrementally: `true` while every stored route has
    /// exactly two nodes. Lets metrics/verify take the pair fast paths
    /// (reading `nodes` as `(u, v)` lanes) without scanning `offsets` —
    /// `nodes.len() == 2 * len()` alone would not prove it (a 3-node
    /// route plus a 1-node route has the same totals).
    pairs_only: bool,
}

impl Default for RouteSet {
    /// Same as [`RouteSet::new`]. (A derived `Default` would leave
    /// `offsets` empty, violating the `offsets[0] == 0` invariant every
    /// accessor relies on.)
    fn default() -> Self {
        RouteSet::new()
    }
}

impl RouteSet {
    /// An empty route set.
    pub fn new() -> Self {
        RouteSet {
            offsets: vec![0],
            nodes: Vec::new(),
            pairs_only: true,
        }
    }

    /// Pre-allocate for `edges` routes totalling about `total_nodes` path
    /// nodes.
    pub fn with_capacity(edges: usize, total_nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(edges + 1);
        offsets.push(0);
        RouteSet {
            offsets,
            nodes: Vec::with_capacity(total_nodes),
            pairs_only: true,
        }
    }

    /// An all-pairs route set from its `(u, v)` lanes: route `i` is
    /// `lanes[2i..2i + 2]`. This is how a builder whose every route is one
    /// cube edge hands over the lanes it filled in place.
    ///
    /// # Panics
    /// Panics if `lanes` has odd length.
    pub(crate) fn from_pairs(lanes: Vec<u64>) -> Self {
        assert!(lanes.len().is_multiple_of(2), "odd number of pair lanes");
        RouteSet {
            offsets: (0..=lanes.len() / 2).map(|i| (2 * i) as u32).collect(),
            nodes: lanes,
            pairs_only: true,
        }
    }

    /// A route set from a filled arena: route `i` is
    /// `nodes[offsets[i]..offsets[i + 1]]`. This is how parallel
    /// builders that sized each chunk up front hand over the buffers they
    /// wrote in place.
    ///
    /// # Panics
    /// Panics unless `offsets` starts at 0, rises strictly (no empty
    /// route) and ends at `nodes.len()`.
    pub fn from_parts(offsets: Vec<u32>, nodes: Vec<u64>) -> Self {
        let mut rising = offsets.first() == Some(&0);
        let mut pairs_only = true;
        for w in offsets.windows(2) {
            rising &= w[0] < w[1];
            pairs_only &= w[1].wrapping_sub(w[0]) == 2;
        }
        assert!(
            rising && offsets.last().map(|&o| o as usize) == Some(nodes.len()),
            "offsets do not partition the route arena"
        );
        RouteSet {
            offsets,
            nodes,
            pairs_only,
        }
    }

    /// Append a route (full node path, endpoints included). Returns its
    /// index.
    ///
    /// # Panics
    /// Panics if the path has fewer than 1 node (a route for a self-loop of
    /// length 0 is not a thing — guest graphs have no self-loops).
    pub fn push(&mut self, path: &[u64]) -> usize {
        assert!(!path.is_empty(), "empty route");
        self.pairs_only &= path.len() == 2;
        self.nodes.extend_from_slice(path);
        self.offsets.push(self.nodes.len() as u32);
        self.offsets.len() - 2
    }

    /// Append a route given as an iterator.
    pub fn push_iter(&mut self, path: impl IntoIterator<Item = u64>) -> usize {
        let before = self.nodes.len();
        self.nodes.extend(path);
        assert!(self.nodes.len() > before, "empty route");
        self.pairs_only &= self.nodes.len() - before == 2;
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

    /// The node path of route `i` (endpoints included).
    #[inline]
    pub fn route(&self, i: usize) -> &[u64] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Dilation of route `i`: number of host edges on the path.
    #[inline]
    pub fn dilation(&self, i: usize) -> u32 {
        self.offsets[i + 1] - self.offsets[i] - 1
    }

    /// Total number of host-edge traversals over all routes (the numerator
    /// of both average dilation and average congestion).
    #[inline]
    pub fn total_length(&self) -> u64 {
        (self.nodes.len() - self.len()) as u64
    }

    /// Total host-edge traversals of the route range `lo..hi` — lets
    /// parallel metric workers pre-size their scratch exactly.
    #[inline]
    pub fn span_length(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi <= self.len());
        (self.offsets[hi] - self.offsets[lo]) as usize - (hi - lo)
    }

    /// `true` while every stored route has exactly two nodes (the
    /// dilation-1 shape all Gray-code embeddings produce). Gates the
    /// metrics/verify pair fast paths.
    #[inline]
    pub fn all_pairs(&self) -> bool {
        self.pairs_only
    }

    /// The raw node arena viewed as `(u, v)` endpoint lanes. Only
    /// meaningful when [`RouteSet::all_pairs`] is `true`: lane `i` is
    /// `(pairs[2i], pairs[2i+1])` — route `i` without the offsets
    /// indirection.
    #[inline]
    pub fn pair_lanes(&self) -> &[u64] {
        debug_assert!(self.pairs_only);
        &self.nodes
    }

    /// Iterate over all routes.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(move |i| self.route(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut rs = RouteSet::new();
        assert!(rs.is_empty());
        let a = rs.push(&[0, 1]);
        let b = rs.push(&[3, 2, 6]);
        let c = rs.push_iter([5u64]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.route(0), &[0, 1]);
        assert_eq!(rs.route(1), &[3, 2, 6]);
        assert_eq!(rs.route(2), &[5]);
        assert_eq!(rs.dilation(0), 1);
        assert_eq!(rs.dilation(1), 2);
        assert_eq!(rs.dilation(2), 0);
        assert_eq!(rs.total_length(), 3);
    }

    #[test]
    fn iter_matches_indexing() {
        let mut rs = RouteSet::with_capacity(2, 5);
        rs.push(&[1, 0]);
        rs.push(&[2, 3, 7]);
        let collected: Vec<Vec<u64>> = rs.iter().map(|r| r.to_vec()).collect();
        assert_eq!(collected, vec![vec![1, 0], vec![2, 3, 7]]);
    }

    #[test]
    #[should_panic]
    fn empty_route_rejected() {
        RouteSet::new().push(&[]);
    }

    #[test]
    fn default_is_usable() {
        let rs = RouteSet::default();
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.total_length(), 0);
    }

    #[test]
    fn pairs_only_tracks_route_shapes() {
        let mut rs = RouteSet::new();
        assert!(rs.all_pairs());
        rs.push(&[0, 1]);
        rs.push(&[2, 3]);
        rs.push_iter([4u64, 5]);
        assert!(rs.all_pairs());
        assert_eq!(rs.pair_lanes(), &[0, 1, 2, 3, 4, 5]);
        // A 3-node route plus a 1-node route keeps nodes.len() == 2·len()
        // but must clear the flag.
        rs.push(&[6, 7, 7]);
        rs.push(&[9]);
        assert!(!rs.all_pairs());
    }

    #[test]
    fn from_pairs_reads_lanes_as_routes() {
        let rs = RouteSet::from_pairs(vec![0, 1, 2, 3, 8, 9]);
        assert!(rs.all_pairs());
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.route(0), &[0, 1]);
        assert_eq!(rs.route(2), &[8, 9]);
        assert_eq!(rs.pair_lanes(), &[0, 1, 2, 3, 8, 9]);
        assert_eq!(rs.total_length(), 3);
        let empty = RouteSet::from_pairs(Vec::new());
        assert!(empty.is_empty() && empty.all_pairs());
    }

    #[test]
    fn from_parts_matches_pushing_in_order() {
        let paths: [&[u64]; 4] = [&[0, 1], &[4, 5, 7], &[2, 3], &[9]];
        let mut pushed = RouteSet::new();
        let mut offsets = vec![0u32];
        let mut nodes = Vec::new();
        for p in paths {
            pushed.push(p);
            nodes.extend_from_slice(p);
            offsets.push(nodes.len() as u32);
        }
        let built = RouteSet::from_parts(offsets, nodes);
        assert_eq!(built.len(), 4);
        assert_eq!(
            built.iter().collect::<Vec<_>>(),
            pushed.iter().collect::<Vec<_>>()
        );
        assert_eq!(built.total_length(), 4);
        assert!(!built.all_pairs());
        // The flag is recomputed from the offsets.
        let pairs = RouteSet::from_parts(vec![0, 2, 4], vec![2, 3, 3, 7]);
        assert!(pairs.all_pairs());
        assert!(RouteSet::from_parts(vec![0], Vec::new()).all_pairs());
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_an_empty_route() {
        RouteSet::from_parts(vec![0, 2, 2], vec![0, 1]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_a_short_arena() {
        RouteSet::from_parts(vec![0, 2, 4], vec![0, 1, 3]);
    }
}

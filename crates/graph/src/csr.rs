//! Compressed-sparse-row storage for simple undirected graphs.
//!
//! The CSR layout keeps all adjacency data in three flat slot arrays, which
//! is the cache-friendly layout of choice for graph kernels. On top of the
//! plain neighbor lists we store, for every incident slot:
//!
//! * the [`EdgeId`] of the undirected edge occupying the slot, and
//! * the *mirror index*: the position of the reverse slot inside the CSR
//!   arrays, so `(v, port)` can be translated to `(u, port')` in O(1).
//!
//! Mirrors are what let the LOCAL-model simulator route messages between the
//! two endpoints of an edge without any hashing, and what lets protocol code
//! mark "this undirected edge is consumed" consistently from either side.
//!
//! ## Patching in place
//!
//! Every node owns a *row* of slots `start..end` with explicit bounds, plus
//! a capacity `end..limit` it may grow into. [`GraphBuilder`] lays the rows
//! out back to back with no slack (so a built graph has exactly `2m`
//! slots), and [`CsrGraph::insert_edge`] / [`CsrGraph::remove_edge`] edit
//! the graph in O(Δ): a row stays sorted by shifting within it, and a full
//! row moves to the array tail with doubled capacity, re-pointing the
//! mirrors of its slots. Slots a row leaves behind are dead; per-slot
//! arrays are sized by [`CsrGraph::num_slots`], which counts them. Nodes
//! come and go at the end of the id range: [`CsrGraph::push_node`] appends
//! an isolated node, and [`CsrGraph::swap_remove_node`] moves the last
//! node into a removed node's id, so ids stay dense `0..n`.
//!
//! Edge ids stay dense `0..m` under deletion by *swap-remove*: the edge
//! with the last id takes the deleted edge's id (see
//! [`CsrGraph::remove_edge`]). So after churn, id order is no longer
//! endpoint order; [`CsrGraph::edges`] and [`CsrGraph::edge_list`] walk the
//! rows and so always yield the canonical endpoint order, which for a built
//! graph is exactly id order.

use crate::builder::{BuildError, GraphBuilder};
use crate::ids::{EdgeId, NodeId, Port};

/// A simple undirected graph in CSR form.
///
/// Invariants (established by [`GraphBuilder`], kept by the patch methods):
/// * no self-loops, no parallel edges;
/// * node `v`'s slots are `rows[v].0..rows[v].1`, sorted by neighbor id;
///   `rows[v].1..limits[v]` is slack, and no two rows' `start..limit`
///   ranges overlap;
/// * the slot arrays have equal length (`>= 2 m`; exactly `2 m` for a
///   built graph, whose rows are contiguous and slack-free);
/// * slot `i` holds neighbor `neighbors[i]`, undirected edge `edge_ids[i]`,
///   and `mirror[i]` is the slot of the same edge at the other endpoint;
/// * edge ids are exactly `0..m`.
///
/// Equality is graph equality: the same node count and the same endpoints
/// for every edge id, whatever the slot layout.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// Slot range `(start, end)` of each node's row.
    pub(crate) rows: Vec<(u32, u32)>,
    /// Capacity end of each node's row (`rows[v].1..limits[v]` is slack).
    pub(crate) limits: Vec<u32>,
    pub(crate) neighbors: Vec<u32>,
    pub(crate) edge_ids: Vec<u32>,
    pub(crate) mirror: Vec<u32>,
    /// Endpoints of each undirected edge, with `endpoints[e].0 < endpoints[e].1`.
    pub(crate) endpoints: Vec<(u32, u32)>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes() == other.num_nodes() && self.endpoints == other.endpoints
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a graph from an edge list over nodes `0..n`.
    ///
    /// Fails on self-loops, duplicate edges, or endpoints `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, BuildError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v))?;
        }
        b.build()
    }

    /// Number of nodes `n`.
    #[inline(always)]
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges `m`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of node `v`.
    #[inline(always)]
    pub fn degree(&self, v: NodeId) -> usize {
        let (lo, hi) = self.rows[v.idx()];
        (hi - lo) as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(NodeId::from(v)))
            .max()
            .unwrap_or(0)
    }

    /// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in 0..self.num_nodes() {
            hist[self.degree(NodeId::from(v))] += 1;
        }
        hist
    }

    /// The sorted neighbor list of `v`.
    #[inline(always)]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let (lo, hi) = self.rows[v.idx()];
        &self.neighbors[lo as usize..hi as usize]
    }

    /// Iterator over neighbors of `v` as [`NodeId`]s.
    pub fn neighbor_ids(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&u| NodeId(u))
    }

    /// The neighbor reached from `v` through local port `p`.
    #[inline(always)]
    pub fn neighbor_at(&self, v: NodeId, p: Port) -> NodeId {
        NodeId(self.neighbors[self.slot(v, p)])
    }

    /// The undirected edge incident to `v` at local port `p`.
    #[inline(always)]
    pub fn edge_at(&self, v: NodeId, p: Port) -> EdgeId {
        EdgeId(self.edge_ids[self.slot(v, p)])
    }

    /// Flat slot index of `(v, p)` into the CSR arrays.
    #[inline(always)]
    pub fn slot(&self, v: NodeId, p: Port) -> usize {
        debug_assert!(p.idx() < self.degree(v), "port {p} out of range at {v}");
        self.rows[v.idx()].0 as usize + p.idx()
    }

    /// Given the flat slot of `(v, p)`, the flat slot of the same edge at the
    /// other endpoint. `mirror(mirror(s)) == s`.
    #[inline(always)]
    pub fn mirror_slot(&self, slot: usize) -> usize {
        self.mirror[slot] as usize
    }

    /// Translates `(v, p)` into the mirrored `(u, p')` pair at the other
    /// endpoint of the edge on port `p`.
    pub fn mirror(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let s = self.slot(v, p);
        let ms = self.mirror_slot(s);
        let u = NodeId(self.neighbors[s]);
        let p2 = Port((ms - self.node_offset(u)) as u32);
        (u, p2)
    }

    /// Endpoints `(u, v)` of edge `e` with `u < v`.
    #[inline(always)]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (a, b) = self.endpoints[e.idx()];
        (NodeId(a), NodeId(b))
    }

    /// The endpoint of edge `e` that is not `v`.
    ///
    /// # Panics
    /// If `v` is not an endpoint of `e` (debug builds only).
    #[inline(always)]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints[e.idx()];
        debug_assert!(v.0 == a || v.0 == b, "{v} is not an endpoint of {e}");
        NodeId(a ^ b ^ v.0)
    }

    /// The local port of edge `e` at node `v`, found by binary search over the
    /// sorted adjacency list (O(log deg)).
    pub fn port_of(&self, v: NodeId, e: EdgeId) -> Option<Port> {
        let u = self.other_endpoint(e, v);
        let i = self.neighbors(v).binary_search(&u.0).ok()?;
        // Simple graph: neighbor uniquely identifies the edge.
        debug_assert_eq!(self.edge_ids[self.node_offset(v) + i], e.0);
        Some(Port(i as u32))
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids, in canonical endpoint order (see
    /// [`CsrGraph::edge_list`]).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_list().map(|(e, _, _)| e)
    }

    /// Iterator over `(EdgeId, u, v)` triples with `u < v`, in canonical
    /// order: `u` ascending, then `v` ascending. For a graph fresh from
    /// [`GraphBuilder`] this is exactly id order `0..m`; after
    /// [`CsrGraph::remove_edge`] has swapped ids it is still the order a
    /// rebuild of the same edge set would number them, so per-edge
    /// solutions listed in this order compare equal across the two.
    pub fn edge_list(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            let (lo, hi) = self.rows[u.idx()];
            let (lo, hi) = (lo as usize, hi as usize);
            // Rows are sorted: the neighbors above `u` are a suffix.
            let above = lo + self.neighbors[lo..hi].partition_point(|&v| v < u.0);
            self.neighbors[above..hi]
                .iter()
                .zip(&self.edge_ids[above..hi])
                .map(move |(&v, &e)| (EdgeId(e), u, NodeId(v)))
        })
    }

    /// True if `{u, v}` is an edge (O(log deg)). Out-of-range ids are not
    /// endpoints of any edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The id of the edge `{u, v}` if present (O(log deg)); `None` for a
    /// self-pair or an id `>= n`.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let n = self.num_nodes();
        if u == v || u.idx() >= n || v.idx() >= n {
            return None;
        }
        // Search the shorter row; the edge id is the same from either side.
        let (s, t) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let i = self.neighbors(s).binary_search(&t.0).ok()?;
        Some(EdgeId(self.edge_ids[self.node_offset(s) + i]))
    }

    /// Total number of slots, dead ones included (`2 m` for a built
    /// graph); the size of per-slot arrays such as simulator mailboxes.
    #[inline(always)]
    pub fn num_slots(&self) -> usize {
        self.neighbors.len()
    }

    /// The CSR offset of node `v`'s first slot. Exposed for engines that index
    /// per-slot state directly.
    #[inline(always)]
    pub fn node_offset(&self, v: NodeId) -> usize {
        self.rows[v.idx()].0 as usize
    }

    /// Inserts the undirected edge `{u, v}` in O(Δ) (amortized: a full row
    /// first moves to the tail of the slot arrays with doubled capacity).
    /// The new edge takes id `m`; every other edge keeps its id, and every
    /// other node keeps its ports, except that the new neighbor's port
    /// shifts the higher ports of `u` and `v` up by one.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, BuildError> {
        let n = self.num_nodes();
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        for w in [u, v] {
            if w.idx() >= n {
                return Err(BuildError::NodeOutOfRange(w, n));
            }
        }
        if self.has_edge(u, v) {
            return Err(BuildError::DuplicateEdge(u.min(v), u.max(v)));
        }
        let e = self.num_edges() as u32;
        let su = self.open_slot(u, v.0, e);
        let sv = self.open_slot(v, u.0, e);
        self.mirror[su] = sv as u32;
        self.mirror[sv] = su as u32;
        self.endpoints.push((u.0.min(v.0), u.0.max(v.0)));
        Ok(EdgeId(e))
    }

    /// Removes the edge `{u, v}` in O(Δ) and returns the id it had, or
    /// `None` if there is no such edge.
    ///
    /// Ids stay dense by swap-remove: if the removed id `e` was not the
    /// last one, the edge with id `m - 1` now has id `e` — exactly what
    /// `Vec::swap_remove(e)` does to a per-edge array. The higher ports of
    /// `u` and `v` shift down by one; no other node's ports change.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let e = self.edge_between(u, v)?;
        let su = self.slot(u, self.port_of(u, e).expect("endpoint port"));
        let sv = self.mirror_slot(su);
        self.close_slot(u, su);
        self.close_slot(v, sv);
        self.endpoints.swap_remove(e.idx());
        if let Some(&(a, b)) = self.endpoints.get(e.idx()) {
            // The former last edge moved into id `e`: relabel its slots.
            let i = self
                .neighbors(NodeId(a))
                .binary_search(&b)
                .expect("live edge");
            let s = self.node_offset(NodeId(a)) + i;
            self.edge_ids[s] = e.0;
            self.edge_ids[self.mirror[s] as usize] = e.0;
        }
        Some(e)
    }

    /// Appends an isolated node `n` and returns its id. Its row gets room
    /// for `capacity` ports at the tail of the slot arrays, so its first
    /// `capacity` edges move no row.
    pub fn push_node(&mut self, capacity: usize) -> NodeId {
        let at = self.num_slots();
        assert!(
            at + capacity <= u32::MAX as usize,
            "slot index overflows u32"
        );
        for slots in [&mut self.neighbors, &mut self.edge_ids, &mut self.mirror] {
            slots.resize(at + capacity, 0);
        }
        self.rows.push((at as u32, at as u32));
        self.limits.push((at + capacity) as u32);
        NodeId(self.rows.len() as u32 - 1)
    }

    /// Removes the last node, which must be isolated. Its row's slots
    /// become dead, unless the row sits at the tail of the slot arrays,
    /// which then shrink.
    ///
    /// # Panics
    /// If the graph has no node or the last node has an edge.
    fn pop_node(&mut self) {
        let (lo, hi) = self.rows.pop().expect("a node to pop");
        assert_eq!(lo, hi, "only an isolated node can be popped");
        let limit = self.limits.pop().expect("one limit per row") as usize;
        if limit == self.num_slots() {
            for slots in [&mut self.neighbors, &mut self.edge_ids, &mut self.mirror] {
                slots.truncate(lo as usize);
            }
        }
    }

    /// Removes node `v` and its edges like `Vec::swap_remove`: if `v` was
    /// not the last node, the last node takes id `v` together with its
    /// edges. Returns the id the moved node had, if one moved. The moved
    /// node keeps its ports (its neighbors are the same, in the same
    /// order); its neighbors' and `v`'s former neighbors' ports shift as
    /// under [`CsrGraph::remove_edge`] and [`CsrGraph::insert_edge`].
    /// Edge ids stay dense but are reassigned (O(Δ²) work at `v`, the last
    /// node and their neighbors).
    ///
    /// # Panics
    /// If `v` is out of range.
    pub fn swap_remove_node(&mut self, v: NodeId) -> Option<NodeId> {
        let n = self.num_nodes();
        assert!(
            v.idx() < n,
            "node {v} out of range for graph with {n} nodes"
        );
        let last = NodeId(n as u32 - 1);
        while let Some(&u) = self.neighbors(v).last() {
            self.remove_edge(v, NodeId(u));
        }
        if v != last {
            // Ascending, so each edge lands at the end of `v`'s row.
            while let Some(&u) = self.neighbors(last).first() {
                self.remove_edge(last, NodeId(u));
                self.insert_edge(v, NodeId(u))
                    .expect("v has no edges left, and u < n - 1 is in range");
            }
        }
        self.pop_node();
        (v != last).then_some(last)
    }

    /// Opens a slot for neighbor `w` (edge `e`) in `v`'s row at its sorted
    /// position and returns it; the caller sets its mirror.
    fn open_slot(&mut self, v: NodeId, w: u32, e: u32) -> usize {
        if self.rows[v.idx()].1 == self.limits[v.idx()] {
            self.relocate_row(v);
        }
        let (lo, hi) = self.rows[v.idx()];
        let at = lo as usize + self.neighbors(v).partition_point(|&x| x < w);
        for s in (at..hi as usize).rev() {
            self.move_slot(s, s + 1);
        }
        self.neighbors[at] = w;
        self.edge_ids[at] = e;
        self.rows[v.idx()].1 += 1;
        at
    }

    /// Closes slot `s` of `v`'s row, shifting the higher slots down.
    fn close_slot(&mut self, v: NodeId, s: usize) {
        let hi = self.rows[v.idx()].1 as usize;
        for t in s + 1..hi {
            self.move_slot(t, t - 1);
        }
        self.rows[v.idx()].1 -= 1;
    }

    /// Moves `v`'s full row to the tail of the slot arrays with doubled
    /// capacity; its old slots become dead.
    fn relocate_row(&mut self, v: NodeId) {
        let (lo, hi) = self.rows[v.idx()];
        let deg = hi - lo;
        let at = self.num_slots();
        let cap = (2 * deg).max(2) as usize;
        assert!(at + cap <= u32::MAX as usize, "slot index overflows u32");
        for slots in [&mut self.neighbors, &mut self.edge_ids, &mut self.mirror] {
            slots.resize(at + cap, 0);
        }
        for i in 0..deg as usize {
            self.move_slot(lo as usize + i, at + i);
        }
        self.rows[v.idx()] = (at as u32, at as u32 + deg);
        self.limits[v.idx()] = (at + cap) as u32;
    }

    /// Copies slot `from` to `to` and re-points the mirror slot at it.
    fn move_slot(&mut self, from: usize, to: usize) {
        self.neighbors[to] = self.neighbors[from];
        self.edge_ids[to] = self.edge_ids[from];
        let m = self.mirror[from];
        self.mirror[to] = m;
        self.mirror[m as usize] = to as u32;
    }

    /// Checks all internal invariants; used by tests and the builder.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let m = self.num_edges();
        let len = self.neighbors.len();
        if self.limits.len() != n || self.edge_ids.len() != len || self.mirror.len() != len {
            return Err("array length mismatch".into());
        }
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut slots = 0usize;
        for (v, &(lo, hi)) in self.rows.iter().enumerate() {
            if !(lo <= hi && hi <= self.limits[v] && self.limits[v] as usize <= len) {
                return Err(format!("row bounds of v{v} out of order"));
            }
            if lo < self.limits[v] {
                spans.push((lo, self.limits[v]));
            }
            slots += (hi - lo) as usize;
        }
        spans.sort_unstable();
        if spans.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err("rows overlap".into());
        }
        if slots != 2 * m {
            return Err("row degrees do not sum to 2m".into());
        }
        for v in 0..n {
            let nbrs = self.neighbors(NodeId::from(v));
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of v{v} not strictly sorted"));
                }
            }
            for (p, &u) in nbrs.iter().enumerate() {
                if u as usize >= n {
                    return Err(format!("neighbor out of range at v{v}"));
                }
                let s = self.slot(NodeId::from(v), Port::from(p));
                let ms = self.mirror_slot(s);
                if ms >= len || self.mirror_slot(ms) != s {
                    return Err(format!("mirror not involutive at slot {s}"));
                }
                if self.neighbors[ms] != v as u32 {
                    return Err(format!("mirror slot {ms} does not point back to v{v}"));
                }
                if self.edge_ids[ms] != self.edge_ids[s] {
                    return Err(format!("edge id mismatch across mirror at slot {s}"));
                }
                let e = self.edge_ids[s] as usize;
                if e >= m {
                    return Err(format!("edge id out of range at slot {s}"));
                }
                let (a, b) = self.endpoints[e];
                let (x, y) = if (v as u32) < u {
                    (v as u32, u)
                } else {
                    (u, v as u32)
                };
                if (a, b) != (x, y) {
                    return Err(format!("endpoints of e{e} disagree with slot {s}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = k4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.num_slots(), 12);
        assert_eq!(g.max_degree(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 2)]).unwrap();
        assert_eq!(g.neighbors(NodeId(3)), &[0, 1, 2, 4]);
        g.validate().unwrap();
    }

    #[test]
    fn mirror_roundtrip() {
        let g = k4();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let p = Port::from(p);
                let (u, q) = g.mirror(v, p);
                let (v2, p2) = g.mirror(u, q);
                assert_eq!((v2, p2), (v, p));
                assert_eq!(g.neighbor_at(v, p), u);
                assert_eq!(g.neighbor_at(u, q), v);
                assert_eq!(g.edge_at(v, p), g.edge_at(u, q));
            }
        }
    }

    #[test]
    fn endpoints_and_other() {
        let g = k4();
        for (e, u, v) in g.edge_list() {
            assert!(u < v);
            assert_eq!(g.other_endpoint(e, u), v);
            assert_eq!(g.other_endpoint(e, v), u);
            assert_eq!(g.port_of(u, e).map(|p| g.edge_at(u, p)), Some(e));
            assert_eq!(g.port_of(v, e).map(|p| g.edge_at(v, p)), Some(e));
        }
    }

    #[test]
    fn has_edge_and_edge_between() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)));
        assert_eq!(g.edge_between(NodeId(2), NodeId(3)), Some(EdgeId(1)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn out_of_range_ids_are_not_endpoints() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        for (u, v) in [(0, 4), (4, 0), (7, 9), (u32::MAX, 1)] {
            assert!(!g.has_edge(NodeId(u), NodeId(v)));
            assert_eq!(g.edge_between(NodeId(u), NodeId(v)), None);
        }
    }

    #[test]
    fn insert_grows_rows_and_keeps_them_sorted() {
        let mut g = CsrGraph::from_edges(5, &[(0, 2), (0, 4), (1, 2)]).unwrap();
        assert_eq!(g.num_slots(), 6, "a built graph has no slack");
        assert_eq!(g.insert_edge(NodeId(3), NodeId(0)), Ok(EdgeId(3)));
        g.validate().unwrap();
        assert_eq!(g.neighbors(NodeId(0)), &[2, 3, 4]);
        assert_eq!(g.neighbors(NodeId(3)), &[0]);
        assert_eq!(g.edge_between(NodeId(0), NodeId(3)), Some(EdgeId(3)));
        assert_eq!(g.endpoints(EdgeId(3)), (NodeId(0), NodeId(3)));
        assert_eq!(
            g.insert_edge(NodeId(0), NodeId(3)),
            Err(BuildError::DuplicateEdge(NodeId(0), NodeId(3)))
        );
        assert_eq!(
            g.insert_edge(NodeId(1), NodeId(1)),
            Err(BuildError::SelfLoop(NodeId(1)))
        );
        assert_eq!(
            g.insert_edge(NodeId(1), NodeId(5)),
            Err(BuildError::NodeOutOfRange(NodeId(5), 5))
        );
        g.validate().unwrap();
    }

    #[test]
    fn remove_swaps_the_last_id_into_the_hole() {
        let mut g = k4();
        assert_eq!(g.remove_edge(NodeId(0), NodeId(4)), None);
        assert_eq!(g.remove_edge(NodeId(2), NodeId(0)), Some(EdgeId(1)));
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 5);
        // {2, 3} had the last id (5) and now has the removed one.
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(2), NodeId(3)));
        assert_eq!(g.edge_between(NodeId(3), NodeId(2)), Some(EdgeId(1)));
        assert_eq!(g.neighbors(NodeId(0)), &[1, 3]);
        assert_eq!(g.neighbors(NodeId(2)), &[1, 3]);
        assert_eq!(g.remove_edge(NodeId(0), NodeId(2)), None);
        // Removing the last id moves nothing.
        let last = EdgeId(4);
        let (a, b) = g.endpoints(last);
        assert_eq!(g.remove_edge(a, b), Some(last));
        g.validate().unwrap();
    }

    #[test]
    fn patched_graph_matches_a_rebuild_of_its_edge_set() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 40u32;
        let mut g = CsrGraph::from_edges(n as usize, &[]).unwrap();
        for step in 0..3000 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            if g.has_edge(NodeId(u), NodeId(v)) && rng.gen_bool(0.45) {
                g.remove_edge(NodeId(u), NodeId(v)).unwrap();
            } else if !g.has_edge(NodeId(u), NodeId(v)) {
                g.insert_edge(NodeId(u), NodeId(v)).unwrap();
            }
            if step % 97 == 0 {
                g.validate().unwrap();
                let pairs: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
                let fresh = CsrGraph::from_edges(n as usize, &pairs).unwrap();
                // Same rows, and the canonical walk is the rebuild's id order.
                for v in g.nodes() {
                    assert_eq!(g.neighbors(v), fresh.neighbors(v));
                }
                let fresh_pairs: Vec<(u32, u32)> =
                    fresh.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
                assert_eq!(pairs, fresh_pairs);
                assert!(fresh.edges().map(|e| e.0).eq(0..fresh.num_edges() as u32));
                for (e, a, b) in g.edge_list() {
                    assert_eq!(g.endpoints(e), (a, b));
                }
            }
        }
    }

    #[test]
    fn node_patches_match_a_rebuild_of_the_relabeled_edge_set() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let mut g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 5)]).unwrap();
        // The model: the edge set as pairs, relabeled by hand.
        let mut pairs: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
        for step in 0..400 {
            let n = g.num_nodes() as u32;
            if n < 3 || rng.gen_bool(0.55) {
                let k = rng.gen_range(0..4usize).min(n as usize);
                let v = g.push_node(k);
                assert_eq!(v, NodeId(n));
                let mut picked: Vec<u32> = Vec::new();
                while picked.len() < k {
                    let u = rng.gen_range(0..n);
                    if !picked.contains(&u) {
                        picked.push(u);
                        g.insert_edge(v, NodeId(u)).unwrap();
                        pairs.push((u, n));
                    }
                }
            } else {
                let v = rng.gen_range(0..n);
                let last = n - 1;
                let moved = g.swap_remove_node(NodeId(v));
                assert_eq!(moved, (v != last).then_some(NodeId(last)));
                pairs.retain(|&(a, b)| a != v && b != v);
                for (a, b) in &mut pairs {
                    for x in [&mut *a, &mut *b] {
                        if *x == last {
                            *x = v;
                        }
                    }
                    (*a, *b) = ((*a).min(*b), (*a).max(*b));
                }
            }
            g.validate().unwrap();
            let fresh = CsrGraph::from_edges(g.num_nodes(), &pairs).unwrap();
            for v in g.nodes() {
                assert_eq!(g.neighbors(v), fresh.neighbors(v), "step {step}, {v}");
            }
            assert_eq!(g.num_edges(), pairs.len());
        }
    }

    #[test]
    fn popping_the_tail_row_shrinks_the_slot_arrays() {
        let mut g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let v = g.push_node(3);
        assert_eq!(g.num_slots(), 7);
        g.pop_node();
        assert_eq!((g.num_nodes(), g.num_slots()), (3, 4));
        // A row that is not at the tail leaves a dead slot behind.
        let v2 = g.push_node(1); // slot 4
        assert_eq!(v, v2);
        g.insert_edge(v2, NodeId(0)).unwrap(); // node 0's full row moves to 5..7
        assert_eq!(g.num_slots(), 7);
        assert_eq!(g.swap_remove_node(v2), None);
        g.validate().unwrap();
        assert_eq!((g.num_nodes(), g.num_slots()), (3, 7));
    }

    #[test]
    fn equality_ignores_slot_layout() {
        let mut g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        g.insert_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g, CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap());
        assert_ne!(g.num_slots(), 4, "the rows moved to the tail");
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.degree_histogram(), vec![3]);
        g.validate().unwrap();
    }

    #[test]
    fn degree_histogram_star() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree_histogram(), vec![0, 3, 0, 1]);
    }
}

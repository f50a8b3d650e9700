//! Orientation state: per-edge direction, maintained loads, badness,
//! happiness, potential, and the stability verifier.

use td_graph::{CsrGraph, EdgeId, NodeId};

/// Sentinel for "edge not oriented yet".
const UNORIENTED: u32 = u32::MAX;

/// A (partial) orientation of the edges of a graph, with node loads
/// (indegrees) maintained incrementally.
///
/// *Load* of a node = number of edges oriented toward it (its indegree),
/// matching the paper's customer/server reading: an edge oriented toward
/// `v` is a customer using server `v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orientation {
    head: Vec<u32>,
    load: Vec<u32>,
}

/// A witness that an orientation is not stable, or that a churn engine's
/// node states no longer describe it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnhappyEdge {
    /// An edge is not oriented at all.
    Unoriented(EdgeId),
    /// An oriented edge has badness >= 2 (flipping it would help).
    Unhappy {
        /// The offending edge.
        edge: EdgeId,
        /// Its badness `load(head) - load(tail)` (>= 2 here).
        badness: i64,
    },
    /// The protocol state of this node disagrees with the maintained
    /// orientation: an edge direction, its load, or a neighbor-load cache
    /// (see [`crate::OrientChurnEngine::verify`]).
    StateMismatch(NodeId),
}

impl std::fmt::Display for UnhappyEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnhappyEdge::Unoriented(e) => write!(f, "edge {e} is unoriented"),
            UnhappyEdge::Unhappy { edge, badness } => {
                write!(f, "edge {edge} is unhappy (badness {badness})")
            }
            UnhappyEdge::StateMismatch(v) => {
                write!(f, "state of {v} disagrees with the maintained orientation")
            }
        }
    }
}

impl std::error::Error for UnhappyEdge {}

impl Orientation {
    /// A fully unoriented orientation.
    pub fn unoriented(g: &CsrGraph) -> Self {
        Orientation {
            head: vec![UNORIENTED; g.num_edges()],
            load: vec![0; g.num_nodes()],
        }
    }

    /// An arbitrary complete orientation: every edge toward its larger
    /// endpoint. (The adversarially bad "just pick something" start used by
    /// the baseline.)
    pub fn toward_larger(g: &CsrGraph) -> Self {
        let mut o = Orientation::unoriented(g);
        for (e, u, v) in g.edge_list() {
            o.orient(g, e, if u > v { u } else { v });
        }
        o
    }

    /// A seeded-random complete orientation.
    pub fn random(g: &CsrGraph, rng: &mut impl rand::Rng) -> Self {
        let mut o = Orientation::unoriented(g);
        for (e, u, v) in g.edge_list() {
            o.orient(g, e, if rng.gen_bool(0.5) { u } else { v });
        }
        o
    }

    /// The head of `e` (the node the edge points to), if oriented.
    #[inline(always)]
    pub fn head(&self, e: EdgeId) -> Option<NodeId> {
        let h = self.head[e.idx()];
        (h != UNORIENTED).then_some(NodeId(h))
    }

    /// The tail of `e` (the endpoint that is not the head), if oriented.
    pub fn tail(&self, g: &CsrGraph, e: EdgeId) -> Option<NodeId> {
        self.head(e).map(|h| g.other_endpoint(e, h))
    }

    /// Load (indegree) of node `v`.
    #[inline(always)]
    pub fn load(&self, v: NodeId) -> u32 {
        self.load[v.idx()]
    }

    /// All loads.
    pub fn loads(&self) -> &[u32] {
        &self.load
    }

    /// True if every edge is oriented.
    pub fn fully_oriented(&self) -> bool {
        self.head.iter().all(|&h| h != UNORIENTED)
    }

    /// Number of edges still unoriented.
    pub fn unoriented_count(&self) -> usize {
        self.head.iter().filter(|&&h| h == UNORIENTED).count()
    }

    /// Orients edge `e` toward `to`.
    ///
    /// # Panics
    /// If `e` is already oriented (use [`Orientation::flip`]) or `to` is not
    /// an endpoint of `e`.
    pub fn orient(&mut self, g: &CsrGraph, e: EdgeId, to: NodeId) {
        assert_eq!(self.head[e.idx()], UNORIENTED, "edge {e} already oriented");
        let (a, b) = g.endpoints(e);
        assert!(to == a || to == b, "{to} is not an endpoint of {e}");
        self.head[e.idx()] = to.0;
        self.load[to.idx()] += 1;
    }

    /// Flips the orientation of `e`.
    ///
    /// # Panics
    /// If `e` is unoriented.
    pub fn flip(&mut self, g: &CsrGraph, e: EdgeId) {
        let h = self.head[e.idx()];
        assert_ne!(h, UNORIENTED, "cannot flip unoriented edge {e}");
        let new_head = g.other_endpoint(e, NodeId(h));
        self.load[h as usize] -= 1;
        self.load[new_head.idx()] += 1;
        self.head[e.idx()] = new_head.0;
    }

    /// Badness of an oriented edge: `load(head) - load(tail)`. `None` if
    /// unoriented. An edge is happy iff its badness is at most 1.
    pub fn badness(&self, g: &CsrGraph, e: EdgeId) -> Option<i64> {
        let h = self.head(e)?;
        let t = g.other_endpoint(e, h);
        Some(self.load(h) as i64 - self.load(t) as i64)
    }

    /// True if `e` is oriented and happy (`badness <= 1`).
    pub fn is_happy(&self, g: &CsrGraph, e: EdgeId) -> bool {
        matches!(self.badness(g, e), Some(b) if b <= 1)
    }

    /// The Σ load² potential (Section 1.1). Strictly decreases whenever an
    /// unhappy edge is flipped, certifying termination of flip dynamics.
    pub fn potential(&self) -> u64 {
        self.load.iter().map(|&l| (l as u64) * (l as u64)).sum()
    }

    /// Maximum badness over oriented edges (`None` if nothing is oriented).
    pub fn max_badness(&self, g: &CsrGraph) -> Option<i64> {
        g.edges().filter_map(|e| self.badness(g, e)).max()
    }

    /// Independent stability verifier: every edge oriented and happy.
    pub fn verify_stable(&self, g: &CsrGraph) -> Result<(), UnhappyEdge> {
        // Recompute loads from scratch (do not trust the maintained array).
        let mut load = vec![0u32; g.num_nodes()];
        for e in g.edges() {
            match self.head(e) {
                None => return Err(UnhappyEdge::Unoriented(e)),
                Some(h) => load[h.idx()] += 1,
            }
        }
        debug_assert_eq!(load, self.load, "maintained loads diverged");
        for e in g.edges() {
            let h = self.head(e).unwrap();
            let t = g.other_endpoint(e, h);
            let badness = load[h.idx()] as i64 - load[t.idx()] as i64;
            if badness > 1 {
                return Err(UnhappyEdge::Unhappy { edge: e, badness });
            }
        }
        Ok(())
    }

    /// Follows [`CsrGraph::insert_edge`] (already applied to `g`): the new
    /// edge `e`, which took the next id, points at `to`.
    pub fn insert_edge(&mut self, g: &CsrGraph, e: EdgeId, to: NodeId) {
        assert_eq!(e.idx(), self.head.len(), "a new edge takes the next id");
        self.head.push(UNORIENTED);
        self.orient(g, e, to);
    }

    /// Follows [`CsrGraph::remove_edge`]: drops the removed edge `e`, and
    /// the direction of the edge with the last id moves into `e`
    /// (swap-remove, as the graph renumbers it).
    pub fn remove_edge(&mut self, e: EdgeId) {
        let h = self.head.swap_remove(e.idx());
        if h != UNORIENTED {
            self.load[h as usize] -= 1;
        }
    }

    /// The head of every edge, in canonical endpoint order
    /// ([`CsrGraph::edges`]: `u` ascending, then neighbors `v > u`
    /// ascending). For a built graph that is id order; after churn has
    /// renumbered ids it is still the order a rebuild would give, so
    /// solution fingerprints hash this sequence.
    ///
    /// # Panics
    /// If an edge is unoriented.
    pub fn canonical_heads<'a>(&'a self, g: &'a CsrGraph) -> impl Iterator<Item = NodeId> + 'a {
        g.edges()
            .map(move |e| self.head(e).expect("complete orientation"))
    }

    /// All currently unhappy oriented edges.
    pub fn unhappy_edges<'a>(&'a self, g: &'a CsrGraph) -> impl Iterator<Item = EdgeId> + 'a {
        g.edges()
            .filter(move |&e| matches!(self.badness(g, e), Some(b) if b > 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_graph::gen::classic::{cycle, path, star};

    #[test]
    fn orient_and_flip_maintain_loads() {
        let g = path(3);
        let mut o = Orientation::unoriented(&g);
        assert!(!o.fully_oriented());
        o.orient(&g, EdgeId(0), NodeId(1));
        o.orient(&g, EdgeId(1), NodeId(1));
        assert_eq!(o.load(NodeId(1)), 2);
        assert_eq!(o.load(NodeId(0)), 0);
        assert!(o.fully_oriented());
        o.flip(&g, EdgeId(0));
        assert_eq!(o.load(NodeId(1)), 1);
        assert_eq!(o.load(NodeId(0)), 1);
        assert_eq!(o.head(EdgeId(0)), Some(NodeId(0)));
        assert_eq!(o.tail(&g, EdgeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn badness_and_happiness() {
        let g = star(3); // center 0, leaves 1..=3
        let mut o = Orientation::unoriented(&g);
        for e in g.edges() {
            o.orient(&g, e, NodeId(0));
        }
        // Center load 3, leaves 0: badness 3 everywhere, all unhappy.
        for e in g.edges() {
            assert_eq!(o.badness(&g, e), Some(3));
            assert!(!o.is_happy(&g, e));
        }
        assert_eq!(o.unhappy_edges(&g).count(), 3);
        assert_eq!(o.max_badness(&g), Some(3));
        assert!(matches!(
            o.verify_stable(&g),
            Err(UnhappyEdge::Unhappy { badness: 3, .. })
        ));
    }

    #[test]
    fn cycle_oriented_round_is_stable() {
        let g = cycle(5);
        let mut o = Orientation::unoriented(&g);
        // Orient each edge v -> v+1: every load is exactly 1.
        for v in 0..5u32 {
            let e = g.edge_between(NodeId(v), NodeId((v + 1) % 5)).unwrap();
            o.orient(&g, e, NodeId((v + 1) % 5));
        }
        o.verify_stable(&g).unwrap();
        assert_eq!(o.potential(), 5);
    }

    #[test]
    fn verify_rejects_partial() {
        let g = path(3);
        let mut o = Orientation::unoriented(&g);
        o.orient(&g, EdgeId(0), NodeId(0));
        assert_eq!(o.verify_stable(&g), Err(UnhappyEdge::Unoriented(EdgeId(1))));
        assert_eq!(o.unoriented_count(), 1);
    }

    #[test]
    fn potential_decreases_on_unhappy_flip() {
        let g = star(4);
        let mut o = Orientation::unoriented(&g);
        for e in g.edges() {
            o.orient(&g, e, NodeId(0));
        }
        let before = o.potential();
        let e = o.unhappy_edges(&g).next().unwrap();
        o.flip(&g, e);
        assert!(o.potential() < before);
    }

    #[test]
    fn edge_patches_follow_the_graph_renumbering() {
        let mut g = cycle(4); // edges 0:{0,1} 1:{0,3} 2:{1,2} 3:{2,3}
        let mut o = Orientation::toward_larger(&g);
        let e = g.insert_edge(NodeId(0), NodeId(2)).unwrap();
        o.insert_edge(&g, e, NodeId(0));
        assert_eq!(o.load(NodeId(0)), 1);
        let gone = g.remove_edge(NodeId(0), NodeId(1)).unwrap();
        o.remove_edge(gone);
        // {0, 2} took id 0; loads follow the dropped head.
        assert_eq!(o.head(EdgeId(0)), Some(NodeId(0)));
        assert_eq!(o.loads(), &[1, 0, 1, 2]);
        let heads: Vec<u32> = o.canonical_heads(&g).map(|v| v.0).collect();
        assert_eq!(heads, vec![0, 3, 2, 3], "{{0,2}} {{0,3}} {{1,2}} {{2,3}}");
    }

    #[test]
    fn toward_larger_and_random_are_complete() {
        let g = cycle(7);
        assert!(Orientation::toward_larger(&g).fully_oriented());
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(5)
        };
        assert!(Orientation::random(&g, &mut rng).fully_oriented());
    }
}

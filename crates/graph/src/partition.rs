//! Deterministic locality-aware graph partitioning for the sharded
//! executor.
//!
//! A [`Partition`] splits the nodes `0..n` into `k` *shards*. The sharded
//! simulator in `td-local` gives each shard its own message arena and
//! batches cross-shard traffic, so the partition quality decides how much
//! of a round's communication stays inside one worker's cache: the fewer
//! *boundary edges* (edges whose endpoints live in different shards), the
//! less traffic crosses shard queues.
//!
//! Two constructors are provided, both deterministic (no RNG, no hashing,
//! no iteration-order dependence):
//!
//! * [`Partition::bfs_grown`] — the locality-aware default. It computes a
//!   breadth-first visit order of the whole graph (restarting from the
//!   smallest unassigned node id whenever the frontier empties, so
//!   disconnected graphs are covered) and cuts that order into consecutive
//!   blocks of `⌈n/k⌉` nodes. BFS blocks are unions of partial BFS layers,
//!   so on layered, meshed, or otherwise locally-clustered graphs almost
//!   all edges stay inside a block and the cut is a thin frontier band —
//!   the greedy "grow a shard until full, then start the next one at the
//!   frontier" heuristic.
//! * [`Partition::strided`] — the trivial fallback: node `v` goes to shard
//!   `v mod k`. This is the worst case for locality (on most graphs nearly
//!   every edge is a boundary edge) but needs no traversal; it exists as
//!   the baseline the benchmarks compare against.
//!
//! ## Guarantees
//!
//! For both constructors, with `n` nodes and `k` shards:
//!
//! * **Coverage** — every node belongs to exactly one shard, and
//!   [`Partition::nodes_of`] lists each shard's nodes in ascending id
//!   order.
//! * **Balance** — every shard holds at most `⌈n/k⌉` nodes (the
//!   [`Partition::balance_cap`]). For `bfs_grown`, all shards before the
//!   last non-empty one hold *exactly* `⌈n/k⌉`; for `strided`, shard sizes
//!   differ by at most one. When `k > n`, trailing shards are empty.
//! * **Boundary exactness** — [`Partition::boundary_edges`] is exactly the
//!   set of edges `{u, v}` with `shard(u) != shard(v)`, in ascending
//!   [`EdgeId`] order.
//! * **Determinism** — the same graph and shard count always produce the
//!   same partition (property-tested).
//!
//! No approximation guarantee is claimed for the cut size itself —
//! balanced minimum cut is NP-hard; `bfs_grown` is a heuristic, and
//! experiment e16 (`td exp run e16`) reports the boundary traffic it
//! leaves on the sharded executor.

use crate::csr::CsrGraph;
use crate::ids::{EdgeId, NodeId};
use std::collections::VecDeque;

/// A deterministic assignment of every node to exactly one of `k` shards,
/// plus the derived per-shard node lists and the boundary edge set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    shard_of: Vec<u32>,
    nodes: Vec<Vec<u32>>,
    boundary: Vec<EdgeId>,
}

impl Partition {
    /// The locality-aware partition: consecutive blocks of `⌈n/k⌉` nodes
    /// of a deterministic BFS visit order (see the module docs).
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn bfs_grown(graph: &CsrGraph, shards: usize) -> Partition {
        assert!(shards >= 1, "need at least one shard");
        let n = graph.num_nodes();
        let cap = Self::cap(n, shards);
        let mut shard_of = vec![u32::MAX; n];
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut next_seed = 0usize; // smallest id not yet visited
        let mut visited = 0usize;
        let mut shard = 0u32;
        let mut in_shard = 0usize;
        while visited < n {
            let v = loop {
                match queue.pop_front() {
                    Some(v) if shard_of[v as usize] == u32::MAX => break v,
                    Some(_) => continue, // reached earlier via another edge
                    None => {
                        while shard_of[next_seed] != u32::MAX {
                            next_seed += 1;
                        }
                        break next_seed as u32;
                    }
                }
            };
            if in_shard == cap {
                shard += 1;
                in_shard = 0;
            }
            shard_of[v as usize] = shard;
            in_shard += 1;
            visited += 1;
            for &u in graph.neighbors(NodeId(v)) {
                if shard_of[u as usize] == u32::MAX {
                    queue.push_back(u);
                }
            }
        }
        Self::from_shard_of(graph, shards, shard_of)
    }

    /// The trivial fallback: node `v` goes to shard `v mod shards`.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn strided(graph: &CsrGraph, shards: usize) -> Partition {
        assert!(shards >= 1, "need at least one shard");
        let shard_of = (0..graph.num_nodes())
            .map(|v| (v % shards) as u32)
            .collect();
        Self::from_shard_of(graph, shards, shard_of)
    }

    /// Finishes a partition from a complete `shard_of` map: derives the
    /// ascending per-shard node lists and the boundary edge set.
    fn from_shard_of(graph: &CsrGraph, shards: usize, shard_of: Vec<u32>) -> Partition {
        let mut nodes: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for (v, &s) in shard_of.iter().enumerate() {
            nodes[s as usize].push(v as u32);
        }
        let boundary: Vec<EdgeId> = graph
            .edge_list()
            .filter(|&(_, u, v)| shard_of[u.idx()] != shard_of[v.idx()])
            .map(|(e, _, _)| e)
            .collect();
        Partition {
            shard_of,
            nodes,
            boundary,
        }
    }

    /// The documented per-shard size bound `⌈n/k⌉` (0 for the empty graph).
    pub fn balance_cap(n: usize, shards: usize) -> usize {
        if n == 0 {
            0
        } else {
            n.div_ceil(shards)
        }
    }

    fn cap(n: usize, shards: usize) -> usize {
        Self::balance_cap(n, shards).max(1)
    }

    /// Number of shards `k` (including empty trailing shards when `k > n`).
    pub fn num_shards(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard holding node `v`.
    #[inline(always)]
    pub fn shard_of(&self, v: NodeId) -> u32 {
        self.shard_of[v.idx()]
    }

    /// The raw node → shard map.
    #[inline(always)]
    pub fn shard_map(&self) -> &[u32] {
        &self.shard_of
    }

    /// The nodes of `shard`, in ascending id order.
    pub fn nodes_of(&self, shard: usize) -> &[u32] {
        &self.nodes[shard]
    }

    /// Size of the largest shard.
    pub fn max_shard_size(&self) -> usize {
        self.nodes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The edges crossing shards, in canonical edge order
    /// ([`CsrGraph::edge_list`]; ascending ids for a built graph).
    pub fn boundary_edges(&self) -> &[EdgeId] {
        &self.boundary
    }

    /// Number of boundary edges (the cut size).
    pub fn cut_size(&self) -> usize {
        self.boundary.len()
    }

    /// Checks every documented invariant against `graph`.
    pub fn validate(&self, graph: &CsrGraph) -> Result<(), String> {
        let n = graph.num_nodes();
        let k = self.num_shards();
        if self.shard_of.len() != n {
            return Err("shard map length != node count".into());
        }
        let cap = Self::balance_cap(n, k);
        let mut seen = vec![false; n];
        for (s, list) in self.nodes.iter().enumerate() {
            if list.len() > cap {
                return Err(format!("shard {s} holds {} > cap {cap}", list.len()));
            }
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("shard {s} node list not ascending"));
                }
            }
            for &v in list {
                if v as usize >= n {
                    return Err(format!("shard {s} lists node {v} >= n"));
                }
                if seen[v as usize] {
                    return Err(format!("node {v} listed twice"));
                }
                seen[v as usize] = true;
                if self.shard_of[v as usize] != s as u32 {
                    return Err(format!("node {v}: list says shard {s}, map disagrees"));
                }
            }
        }
        if seen.iter().any(|&b| !b) {
            return Err("some node belongs to no shard".into());
        }
        let expect: Vec<EdgeId> = graph
            .edge_list()
            .filter(|&(_, u, v)| self.shard_of[u.idx()] != self.shard_of[v.idx()])
            .map(|(e, _, _)| e)
            .collect();
        if self.boundary != expect {
            return Err(format!(
                "boundary set mismatch: stored {} edges, expected {}",
                self.boundary.len(),
                expect.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::classic::{cycle, path};

    #[test]
    fn bfs_grown_on_path_cuts_k_minus_1_edges() {
        // A path in id order is the best case: BFS blocks are intervals, so
        // the cut is exactly one edge per shard border.
        let g = path(16);
        for k in [1usize, 2, 4, 8] {
            let p = Partition::bfs_grown(&g, k);
            p.validate(&g).unwrap();
            assert_eq!(p.num_shards(), k);
            assert_eq!(p.cut_size(), k - 1, "k = {k}");
            assert_eq!(p.max_shard_size(), 16 / k);
        }
    }

    #[test]
    fn strided_on_path_cuts_everything() {
        let g = path(16);
        let p = Partition::strided(&g, 4);
        p.validate(&g).unwrap();
        // Adjacent path nodes never share a shard when k > 1.
        assert_eq!(p.cut_size(), 15);
    }

    #[test]
    fn single_shard_has_empty_boundary() {
        let g = cycle(9);
        for p in [Partition::bfs_grown(&g, 1), Partition::strided(&g, 1)] {
            p.validate(&g).unwrap();
            assert_eq!(p.cut_size(), 0);
            assert_eq!(p.nodes_of(0).len(), 9);
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_trailing_empty() {
        let g = path(3);
        let p = Partition::bfs_grown(&g, 8);
        p.validate(&g).unwrap();
        assert_eq!(p.num_shards(), 8);
        assert_eq!(p.max_shard_size(), 1);
        assert!(p.nodes_of(7).is_empty());
    }

    #[test]
    fn disconnected_graphs_are_fully_covered() {
        // Two components; BFS must restart at the smallest unassigned id.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let p = Partition::bfs_grown(&g, 2);
        p.validate(&g).unwrap();
        assert_eq!(p.nodes_of(0), &[0, 1, 2]);
        assert_eq!(p.nodes_of(1), &[3, 4, 5]);
        assert_eq!(p.cut_size(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        let p = Partition::bfs_grown(&g, 4);
        p.validate(&g).unwrap();
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.cut_size(), 0);
    }

    #[test]
    fn bfs_beats_strided_on_layered_graphs() {
        // A ladder-ish circulant: locality-aware blocks should cut far
        // fewer edges than striding.
        let mut edges = Vec::new();
        let w = 8u32;
        for level in 1..8u32 {
            for i in 0..w {
                for s in 0..3u32 {
                    edges.push((level * w + i, (level - 1) * w + (i + s) % w));
                }
            }
        }
        let g = CsrGraph::from_edges(64, &edges).unwrap();
        let bfs = Partition::bfs_grown(&g, 4);
        let strided = Partition::strided(&g, 4);
        bfs.validate(&g).unwrap();
        strided.validate(&g).unwrap();
        assert!(
            bfs.cut_size() < strided.cut_size(),
            "bfs cut {} vs strided cut {}",
            bfs.cut_size(),
            strided.cut_size()
        );
    }
}

/// Property tests for the documented partition invariants: coverage,
/// balance, boundary exactness, and determinism, on random G(n, m) graphs
/// for both constructors.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let max_m = n.saturating_sub(1) * n / 2;
        crate::gen::random::gnm(n, m.min(max_m), &mut SmallRng::seed_from_u64(seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every node lands in exactly one shard, shard sizes respect the
        /// documented `⌈n/k⌉` bound, and the boundary set is exactly the
        /// crossing edges — checked through `validate`, whose coverage and
        /// boundary checks recompute everything from scratch.
        #[test]
        fn invariants_hold_on_random_graphs(
            n in 1usize..80,
            m in 0usize..160,
            shards in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let g = random_graph(n, m, seed);
            for p in [Partition::bfs_grown(&g, shards), Partition::strided(&g, shards)] {
                if let Err(e) = p.validate(&g) {
                    return Err(TestCaseError::fail(format!(
                        "n={n} m={m} k={shards} seed={seed}: {e}"
                    )));
                }
                prop_assert_eq!(p.num_shards(), shards);
                let total: usize = (0..shards).map(|s| p.nodes_of(s).len()).sum();
                prop_assert_eq!(total, g.num_nodes());
                prop_assert!(p.max_shard_size() <= Partition::balance_cap(n, shards));
            }
        }

        /// The same inputs always produce the same partition, and BFS
        /// growth fills every shard before the last non-empty one to
        /// exactly the cap.
        #[test]
        fn deterministic_and_packed(
            n in 1usize..60,
            m in 0usize..120,
            shards in 1usize..10,
            seed in 0u64..1_000_000,
        ) {
            let g = random_graph(n, m, seed);
            let a = Partition::bfs_grown(&g, shards);
            let b = Partition::bfs_grown(&g, shards);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(Partition::strided(&g, shards), Partition::strided(&g, shards));
            let cap = Partition::balance_cap(n, shards);
            let last_nonempty = (0..shards).rev().find(|&s| !a.nodes_of(s).is_empty());
            if let Some(last) = last_nonempty {
                for s in 0..last {
                    prop_assert_eq!(a.nodes_of(s).len(), cap, "shard {} underfull", s);
                }
            }
        }
    }
}

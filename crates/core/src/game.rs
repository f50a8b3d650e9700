//! Token dropping game instances.

use rand::Rng;
use std::fmt;
use td_graph::gen::structured::random_layered;
use td_graph::{CsrGraph, NodeId, Port};

/// Errors in instance construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// `levels.len()` or `tokens.len()` does not match the node count.
    LengthMismatch,
    /// An edge joins two nodes whose levels do not differ by exactly 1.
    BadEdgeLevels(NodeId, NodeId),
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::LengthMismatch => write!(f, "levels/tokens length mismatch"),
            GameError::BadEdgeLevels(u, v) => {
                write!(f, "edge {{{u}, {v}}} does not join adjacent levels")
            }
        }
    }
}

impl std::error::Error for GameError {}

/// A validated token dropping game instance (paper Section 4).
///
/// The graph is undirected in storage; the *direction* of each edge is
/// implied by the levels: for an edge `{u, v}` with `level(v) = level(u)+1`,
/// `v` is the **parent** and `u` the **child**, and a token may traverse the
/// edge only from `v` down to `u`.
#[derive(Clone, Debug)]
pub struct TokenGame {
    graph: CsrGraph,
    level: Vec<u32>,
    token: Vec<bool>,
}

impl TokenGame {
    /// Builds and validates an instance.
    pub fn new(graph: CsrGraph, level: Vec<u32>, token: Vec<bool>) -> Result<Self, GameError> {
        if level.len() != graph.num_nodes() || token.len() != graph.num_nodes() {
            return Err(GameError::LengthMismatch);
        }
        for (_, u, v) in graph.edge_list() {
            let (lu, lv) = (level[u.idx()], level[v.idx()]);
            if lu.abs_diff(lv) != 1 {
                return Err(GameError::BadEdgeLevels(u, v));
            }
        }
        Ok(TokenGame {
            graph,
            level,
            token,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Level of node `v`.
    #[inline(always)]
    pub fn level(&self, v: NodeId) -> u32 {
        self.level[v.idx()]
    }

    /// The full level array.
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// True if `v` initially holds a token.
    #[inline(always)]
    pub fn has_token(&self, v: NodeId) -> bool {
        self.token[v.idx()]
    }

    /// The full token array.
    pub fn tokens(&self) -> &[bool] {
        &self.token
    }

    /// Number of tokens in the instance.
    pub fn token_count(&self) -> usize {
        self.token.iter().filter(|&&t| t).count()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The height `L` of the game: the maximum level.
    pub fn height(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Maximum degree Δ of the instance graph.
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// Iterator over the *parents* of `v` (neighbors one level up), as
    /// `(port, parent)` pairs.
    pub fn parents(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let lv = self.level(v);
        self.graph
            .neighbors(v)
            .iter()
            .enumerate()
            .filter(move |(_, &u)| self.level[u as usize] == lv + 1)
            .map(|(p, &u)| (Port::from(p), NodeId(u)))
    }

    /// Iterator over the *children* of `v` (neighbors one level down), as
    /// `(port, child)` pairs.
    pub fn children(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let lv = self.level(v);
        self.graph
            .neighbors(v)
            .iter()
            .enumerate()
            .filter(move |(_, &u)| lv > 0 && self.level[u as usize] == lv - 1)
            .map(|(p, &u)| (Port::from(p), NodeId(u)))
    }

    /// A random layered game: `widths[l]` nodes on level `l`, each node on
    /// level `l >= 1` wired to `down_degree` random nodes below, and each
    /// node independently holding a token with probability `token_density`.
    pub fn random(
        widths: &[usize],
        down_degree: usize,
        token_density: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let (graph, level) = random_layered(widths, down_degree, rng);
        let token = (0..graph.num_nodes())
            .map(|_| rng.gen_bool(token_density))
            .collect();
        TokenGame::new(graph, level, token).expect("generator produces valid instances")
    }

    /// The instance from the paper's **Figure 2**: 5 levels (0..=4), with the
    /// black (token-holding) nodes as drawn. The figure is reproduced up to
    /// node naming; see `examples/token_game.rs` for a rendering.
    ///
    /// Layout (level: nodes):
    /// * 4: `v12, v13` — both hold tokens
    /// * 3: `v9, v10, v11` — `v9`, `v11` hold tokens
    /// * 2: `v6, v7, v8` — `v7` holds a token
    /// * 1: `v3, v4, v5` — `v4` holds a token
    /// * 0: `v0, v1, v2` — none hold tokens
    pub fn figure2() -> Self {
        let edges: &[(u32, u32)] = &[
            // level 1 -> 0
            (3, 0),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            // level 2 -> 1
            (6, 3),
            (6, 4),
            (7, 4),
            (8, 4),
            (8, 5),
            // level 3 -> 2
            (9, 6),
            (9, 7),
            (10, 7),
            (11, 7),
            (11, 8),
            // level 4 -> 3
            (12, 9),
            (12, 10),
            (13, 10),
            (13, 11),
        ];
        let graph = CsrGraph::from_edges(14, edges).unwrap();
        let level = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4];
        let mut token = vec![false; 14];
        for v in [4, 7, 9, 11, 12, 13] {
            token[v] = true;
        }
        TokenGame::new(graph, level, token).unwrap()
    }

    /// Builds the height-2 game used in the Theorem 4.6 reduction: given a
    /// bipartite graph with `side[v] ∈ {0, 1}`, side-1 nodes become level-1
    /// nodes holding tokens and side-0 nodes become level-0 nodes without.
    pub fn from_bipartite_for_matching(graph: CsrGraph, side: &[u8]) -> Result<Self, GameError> {
        let level: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let token: Vec<bool> = side.iter().map(|&s| s == 1).collect();
        TokenGame::new(graph, level, token)
    }

    /// The **contention comb**: `K_{k,k}` between `k` token-holding level-1
    /// nodes and `k` empty level-0 nodes. All level-0 nodes request the same
    /// smallest occupied parent each round, so grants serialize and the
    /// proposal algorithm needs Θ(k) = Θ(Δ) rounds — an adversarial family
    /// realizing the Ω(Δ) hardness of Theorem 4.6 against this algorithm.
    pub fn contention_comb(k: usize) -> Self {
        assert!(k >= 1);
        let mut b = td_graph::GraphBuilder::with_capacity(2 * k, k * k);
        for top in 0..k {
            for bottom in 0..k {
                b.add_edge(NodeId::from(k + top), NodeId::from(bottom))
                    .unwrap();
            }
        }
        let graph = b.build().unwrap();
        let mut level = vec![0u32; 2 * k];
        let mut token = vec![false; 2 * k];
        for top in 0..k {
            level[k + top] = 1;
            token[k + top] = true;
        }
        TokenGame::new(graph, level, token).unwrap()
    }

    /// The **waterfall**: `levels + 1` layers of width `k`, complete
    /// bipartite between consecutive layers, with tokens only on the top
    /// layer. Tokens must funnel through the serializing contention of
    /// every layer, so rounds grow with both `k` and `levels`.
    pub fn waterfall(k: usize, levels: usize) -> Self {
        assert!(k >= 1 && levels >= 1);
        let n = k * (levels + 1);
        let mut b = td_graph::GraphBuilder::with_capacity(n, k * k * levels);
        let id = |layer: usize, i: usize| NodeId::from(layer * k + i);
        for layer in 1..=levels {
            for i in 0..k {
                for j in 0..k {
                    b.add_edge(id(layer, i), id(layer - 1, j)).unwrap();
                }
            }
        }
        let graph = b.build().unwrap();
        let mut level = vec![0u32; n];
        let mut token = vec![false; n];
        for layer in 0..=levels {
            for i in 0..k {
                level[layer * k + i] = layer as u32;
                if layer == levels {
                    token[layer * k + i] = true;
                }
            }
        }
        TokenGame::new(graph, level, token).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_levels() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let err = TokenGame::new(g, vec![0, 2], vec![false, false]).unwrap_err();
        assert_eq!(err, GameError::BadEdgeLevels(NodeId(0), NodeId(1)));
    }

    #[test]
    fn rejects_length_mismatch() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(
            TokenGame::new(g.clone(), vec![0], vec![false, false]).unwrap_err(),
            GameError::LengthMismatch
        );
        assert_eq!(
            TokenGame::new(g, vec![0, 1], vec![false]).unwrap_err(),
            GameError::LengthMismatch
        );
    }

    #[test]
    fn parents_and_children() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2], vec![false, false, true]).unwrap();
        let parents: Vec<NodeId> = game.parents(NodeId(1)).map(|(_, u)| u).collect();
        assert_eq!(parents, vec![NodeId(2)]);
        let children: Vec<NodeId> = game.children(NodeId(1)).map(|(_, u)| u).collect();
        assert_eq!(children, vec![NodeId(0)]);
        assert!(game.children(NodeId(0)).next().is_none());
        assert!(game.parents(NodeId(2)).next().is_none());
        assert_eq!(game.height(), 2);
        assert_eq!(game.token_count(), 1);
    }

    #[test]
    fn figure2_instance_valid() {
        let game = TokenGame::figure2();
        assert_eq!(game.num_nodes(), 14);
        assert_eq!(game.height(), 4);
        assert_eq!(game.token_count(), 6);
        // Level widths as in the figure.
        let mut widths = [0usize; 5];
        for v in game.graph().nodes() {
            widths[game.level(v) as usize] += 1;
        }
        assert_eq!(widths, [3, 3, 3, 3, 2]);
    }

    #[test]
    fn random_game_valid() {
        let mut rng = SmallRng::seed_from_u64(1);
        let game = TokenGame::random(&[10, 10, 10, 5], 3, 0.5, &mut rng);
        assert_eq!(game.num_nodes(), 35);
        assert_eq!(game.height(), 3);
        // Every edge joins adjacent levels (validated in the constructor, but
        // exercise parents/children consistency too).
        for v in game.graph().nodes() {
            let deg = game.graph().degree(v);
            let p = game.parents(v).count();
            let c = game.children(v).count();
            assert_eq!(p + c, deg);
        }
    }

    #[test]
    fn matching_reduction_instance() {
        let g = td_graph::gen::classic::complete_bipartite(3, 4);
        // Sides: 0..3 customers (side 1 = tokens), 3..7 side 0.
        let side: Vec<u8> = (0..7).map(|v| if v < 3 { 1 } else { 0 }).collect();
        let game = TokenGame::from_bipartite_for_matching(g, &side).unwrap();
        assert_eq!(game.height(), 1);
        assert_eq!(game.token_count(), 3);
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;
    use crate::lockstep;
    use crate::verify::verify_solution;

    #[test]
    fn contention_comb_serializes() {
        for k in [2usize, 4, 8, 16] {
            let game = TokenGame::contention_comb(k);
            assert_eq!(game.max_degree(), k);
            assert_eq!(game.token_count(), k);
            let res = lockstep::run(&game);
            verify_solution(&game, &res.solution).unwrap();
            // All k tokens land (k free slots), one grant per round.
            assert_eq!(res.log.len(), k);
            assert!(
                res.rounds as usize >= k,
                "k = {k}: rounds {} below serialization floor",
                res.rounds
            );
            assert!(res.rounds as usize <= 2 * k + 4, "k = {k}");
        }
    }

    #[test]
    fn waterfall_funnels() {
        let game = TokenGame::waterfall(4, 3);
        assert_eq!(game.height(), 3);
        assert_eq!(game.token_count(), 4);
        let res = lockstep::run(&game);
        verify_solution(&game, &res.solution).unwrap();
        // Tokens drain to the bottom layer.
        let bottoms = res
            .solution
            .destinations()
            .filter(|v| game.level(*v) == 0)
            .count();
        assert_eq!(bottoms, 4);
    }
}

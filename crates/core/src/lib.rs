//! # td-core — the token dropping game (paper Section 4)
//!
//! The **token dropping game** is the paper's new primitive. The input is a
//! graph whose nodes sit on levels `0..=L` with every edge joining adjacent
//! levels, plus at most one token per node. A token on level `ℓ` may move to
//! an *unoccupied* node on level `ℓ - 1` along an *unused* edge; every edge
//! may be used at most once in the whole game. The goal is to reach a stuck
//! configuration; the output is the set of token *traversals*, which must be
//! (1) edge-disjoint, (2) have pairwise distinct destinations, and (3) be
//! maximal (no stuck token has an unused edge to an unoccupied child).
//!
//! This crate provides:
//!
//! * [`TokenGame`] — validated instances, generators, and the Figure 2
//!   example instance;
//! * [`Solution`] / [`MoveLog`] — traversals, tails and extended traversals
//!   (Definition 4.3 / Figure 3), and reconstruction from move events;
//! * [`verify`] — independent verifiers for the three output rules and for
//!   the temporal dynamics (replaying moves against occupancy);
//! * [`proposal`] — the paper's distributed **proposal algorithm**
//!   (Theorem 4.1, O(L·Δ²) rounds) as a [`td_local::Protocol`];
//! * [`lockstep`] — a fast engine executing the same per-round dynamics
//!   without message objects (used for large parameter sweeps; tests pin it
//!   to the protocol);
//! * [`three_level`] — the specialised O(Δ) algorithm for games with three
//!   levels (Theorem 4.7);
//! * [`greedy`] — the trivial centralized sequential baseline;
//! * [`matching`] — maximal bipartite matching via height-2 games, the
//!   reduction behind the Ω(Δ + log n/log log n) lower bound (Theorem 4.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod game;
pub mod game_io;
pub mod greedy;
pub mod lockstep;
pub mod matching;
pub mod proposal;
pub mod solution;
pub mod three_level;
pub mod verify;

pub use game::TokenGame;
pub use solution::{MoveEvent, MoveLog, Solution, Traversal};
pub use verify::{verify_dynamics, verify_solution, Violation};

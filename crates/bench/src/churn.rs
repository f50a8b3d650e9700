//! The **churn scenario registry**: trace-driven dynamic workloads over the
//! incremental repair engines, behind one interface — the online regime the
//! one-shot [`crate::scenario`] registry cannot express.
//!
//! A [`ChurnScenario`] builds a live instance and its churn engine, then
//! runs it through the shared engine loop ([`td_local::drive`]): stabilize,
//! then stream a deterministic, seeded [`ChurnEvent`] trace, verifying
//! stability after *every* event. Each run reports the
//! accumulated repair cost ([`RepairStats`]) and, optionally, the cost of
//! recomputing from scratch after each event with the same protocol
//! dynamics (a fresh engine started from an arbitrary solution with every
//! node dirty — the Section 1.1 arbitrary-start regime), so experiment E15
//! can put "repair is O(Δ)-local per update" next to "recompute pays Θ(n)"
//! in the same units.
//!
//! Scenarios:
//!
//! * **`edge-flip`** — adversarial orientation churn: random edges of a
//!   Δ=4 regular graph are flipped *toward the higher-load endpoint*
//!   (maximizing the created unhappiness); `size` = nodes.
//! * **`flash-crowd`** — a Zipf server farm whose hotspot drifts: a stream
//!   of customer joins whose candidate lists are Zipf-skewed around a
//!   rotating hot server, with periodic departures (Comte's token
//!   dispatching regime); `size` = servers.
//! * **`rolling-restart`** — servers drain and rejoin round-robin, the
//!   canonical deploy pattern; every drain evicts the server's customers
//!   through the unassigned path of the repair protocol; `size` = servers.
//! * **`small-world-flux`** — the `small-world` workload family's mixed
//!   flip/insert/delete trace; `size` = nodes.

use crate::scenario::ScenarioKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use td_assign::repair::AssignChurnEngine;
use td_assign::AssignmentInstance;
use td_graph::{EdgeId, NodeId};
use td_local::churn::{drive, ChurnEvent, RepairEngine, RepairMode, RepairStats};
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

/// Uniform result of one churn scenario run.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Registry name.
    pub scenario: &'static str,
    /// Size knob used.
    pub size: u32,
    /// Seed used.
    pub seed: u64,
    /// Events applied (all trace events apply successfully by design).
    pub events: u32,
    /// Nodes of the (final) network.
    pub nodes: usize,
    /// Edges of the (final) network.
    pub edges: usize,
    /// Accumulated incremental-repair cost over the trace.
    pub repair: RepairStats,
    /// Accumulated from-scratch recompute cost (one fresh all-dirty
    /// stabilization per event), if measured.
    pub recompute: Option<RepairStats>,
    /// The solution after the trace ([`RepairEngine::solution_words`]:
    /// orientation heads in canonical endpoint order, or server+1 per
    /// external customer, 0 = unassigned) — the quantity the differential
    /// tests compare bit-for-bit.
    pub fingerprint: Vec<u64>,
    /// Wall-clock of the trace (stabilization, repairs, verification).
    pub wall: Duration,
    /// Scenario-specific extras.
    pub notes: Vec<(&'static str, String)>,
}

impl ChurnReport {
    fn note(mut self, key: &'static str, value: impl ToString) -> Self {
        self.notes.push((key, value.to_string()));
        self
    }
}

/// A named, sized, seeded churn workload over one repair engine.
pub trait ChurnScenario: Sync {
    /// Registry name (`td churn <name>`).
    fn name(&self) -> &'static str;
    /// Problem family.
    fn kind(&self) -> ScenarioKind;
    /// One-line description, including what `size` means.
    fn description(&self) -> &'static str;
    /// Default size knob.
    fn default_size(&self) -> u32;
    /// Default trace length.
    fn default_events(&self) -> u32;
    /// Runs the trace. `mode` selects incremental repair or the
    /// full-recompute fallback; `with_recompute` additionally measures a
    /// from-scratch stabilization after every event. `Err` if the knobs
    /// describe no valid instance. Trace events are valid by construction,
    /// so a failed repair or verification is a bug and panics.
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        threads: usize,
        mode: RepairMode,
        with_recompute: bool,
    ) -> Result<ChurnReport, String>;
}

/// The run every scenario shares: drives `eng` through the events `next`
/// yields with the shared engine loop, measures the from-scratch recompute
/// after every event if asked, and reports the final instance.
fn run_engine<E: RepairEngine + ?Sized>(
    scenario: &'static str,
    size: u32,
    seed: u64,
    with_recompute: bool,
    eng: &mut E,
    next: impl FnMut(&E) -> Option<ChurnEvent>,
) -> ChurnReport {
    let t0 = Instant::now();
    let mut recompute = with_recompute.then(RepairStats::accumulator);
    let stats = drive(eng, next, |e| {
        if let Some(acc) = recompute.as_mut() {
            acc.absorb(e.recompute());
        }
    })
    .unwrap_or_else(|e| panic!("{scenario}: {e}"));
    ChurnReport {
        scenario,
        size,
        seed,
        events: stats.applied,
        nodes: eng.num_nodes(),
        edges: eng.num_edges(),
        repair: stats.events,
        recompute,
        fingerprint: eng.solution_words(),
        wall: t0.elapsed(),
        notes: Vec::new(),
    }
    .note("max load", eng.max_load())
}

// ------------------------------------------------------------ edge-flip ---

/// Adversarial orientation churn on a Δ=4 regular graph.
struct EdgeFlipChurn;

impl EdgeFlipChurn {
    const DEGREE: usize = 4;

    fn graph(size: u32, seed: u64) -> Result<td_graph::CsrGraph, String> {
        let mut n = (size as usize).max(Self::DEGREE + 2);
        if Self::DEGREE % 2 == 1 && n % 2 == 1 {
            n += 1; // the configuration model needs even n·Δ
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        td_graph::gen::random::random_regular(n, Self::DEGREE, &mut rng, 500)
            .ok_or_else(|| format!("edge-flip: no {}-regular graph on {n} nodes", Self::DEGREE))
    }
}

impl ChurnScenario for EdgeFlipChurn {
    fn name(&self) -> &'static str {
        "edge-flip"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "adversarial flips toward the higher-load endpoint of a Δ=4 regular graph; size = nodes"
    }
    fn default_size(&self) -> u32 {
        128
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        threads: usize,
        mode: RepairMode,
        with_recompute: bool,
    ) -> Result<ChurnReport, String> {
        let g = Self::graph(size, seed)?;
        let o = Orientation::toward_larger(&g);
        let mut eng = OrientChurnEngine::new(g, o, mode).with_threads(threads);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c4a0);
        let mut left = events;
        // Adversarial pick: among a handful of sampled edges, flip the one
        // whose *tail* is most loaded — reversing it dumps the edge onto an
        // already-busy node, maximizing the unhappiness one update creates.
        let next = |eng: &OrientChurnEngine| {
            left = left.checked_sub(1)?;
            let (g, o) = (eng.graph(), eng.orientation());
            let mut best: Option<(u32, NodeId, NodeId)> = None;
            for _ in 0..4 {
                let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
                let (a, b) = g.endpoints(e);
                let head = o.head(e).expect("complete");
                let damage = o.load(if head == a { b } else { a });
                if best.is_none_or(|(d, _, _)| damage > d) {
                    best = Some((damage, a, b));
                }
            }
            let (_, u, v) = best.expect("sampled");
            Some(ChurnEvent::EdgeFlip { u, v })
        };
        let rep = run_engine(self.name(), size, seed, with_recompute, &mut eng, next);
        Ok(rep
            .note("Δ", Self::DEGREE)
            .note("potential Σ load²", eng.orientation().potential()))
    }
}

// ----------------------------------------------------------- flash-crowd ---

/// Zipf server farm with a drifting hotspot.
struct FlashCrowdChurn;

/// Zipf(1.2) rank weights over `ns` servers, precomputed once per run
/// (draws happen in a rejection loop on every join event).
struct ZipfRanks {
    weights: Vec<f64>,
    total: f64,
}

impl ZipfRanks {
    fn new(ns: usize) -> Self {
        let weights: Vec<f64> = (0..ns).map(|r| 1.0 / ((r + 1) as f64).powf(1.2)).collect();
        let total = weights.iter().sum();
        ZipfRanks { weights, total }
    }

    /// Draws a Zipf-ranked server around the rotating hotspot.
    fn draw(&self, hot: usize, rng: &mut SmallRng) -> u32 {
        let ns = self.weights.len();
        let mut x = rng.gen_range(0.0..self.total);
        for (r, w) in self.weights.iter().enumerate() {
            if x < *w {
                return ((hot + r) % ns) as u32;
            }
            x -= w;
        }
        ((hot + ns - 1) % ns) as u32
    }

    fn join_list(&self, hot: usize, rng: &mut SmallRng) -> Vec<u32> {
        let ns = self.weights.len();
        let want = 3.min(ns);
        let mut list: Vec<u32> = Vec::with_capacity(want);
        while list.len() < want {
            let s = self.draw(hot, rng);
            if !list.contains(&s) {
                list.push(s);
            }
        }
        list
    }
}

/// Notes both assignment scenarios report.
fn assign_notes(rep: ChurnReport, eng: &AssignChurnEngine) -> ChurnReport {
    rep.note("customers", eng.num_alive())
        .note("cost Σ load²⁺", eng.cost())
}

impl ChurnScenario for FlashCrowdChurn {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "customer joins with Zipf lists around a drifting hot server, periodic leaves; size = servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn default_events(&self) -> u32 {
        48
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        threads: usize,
        mode: RepairMode,
        with_recompute: bool,
    ) -> Result<ChurnReport, String> {
        let ns = (size as usize).max(2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = AssignmentInstance::random(2 * ns, ns, 1..=3.min(ns), &mut rng);
        let mut eng = AssignChurnEngine::new(&base, mode).with_threads(threads);
        let ranks = ZipfRanks::new(ns);
        let mut alive: Vec<u32> = (0..2 * ns as u32).collect();
        let mut next_id = 2 * ns as u32;
        let mut i = 0;
        let next = |_: &AssignChurnEngine| {
            if i == events {
                return None;
            }
            // The hotspot drifts one server every four events.
            let hot = (i as usize / 4) % ns;
            let ev = if i % 4 == 3 && alive.len() > ns {
                let k = rng.gen_range(0..alive.len());
                ChurnEvent::CustomerLeave(alive.swap_remove(k))
            } else {
                alive.push(next_id);
                next_id += 1;
                ChurnEvent::CustomerJoin {
                    servers: ranks.join_list(hot, &mut rng),
                }
            };
            i += 1;
            Some(ev)
        };
        let rep = run_engine(self.name(), size, seed, with_recompute, &mut eng, next);
        Ok(assign_notes(rep, &eng))
    }
}

// ------------------------------------------------------- rolling-restart ---

/// Servers drain and rejoin round-robin.
struct RollingRestartChurn;

impl ChurnScenario for RollingRestartChurn {
    fn name(&self) -> &'static str {
        "rolling-restart"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "servers drain and rejoin round-robin; evicted customers rebalance; size = servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        threads: usize,
        mode: RepairMode,
        with_recompute: bool,
    ) -> Result<ChurnReport, String> {
        let ns = (size as usize).max(2);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Degree ≥ 2 so drained customers always have an alternative.
        let base = AssignmentInstance::random(3 * ns, ns, 2.min(ns)..=3.min(ns), &mut rng);
        let mut eng = AssignChurnEngine::new(&base, mode).with_threads(threads);
        // Even events drain server ⌊i/2⌋ mod ns, odd events bring it back.
        let mut i = 0;
        let next = |_: &AssignChurnEngine| {
            (i < events).then(|| {
                let server = ((i / 2) as usize % ns) as u32;
                let capacity = i % 2;
                i += 1;
                ChurnEvent::ServerCapacity { server, capacity }
            })
        };
        let rep = run_engine(self.name(), size, seed, with_recompute, &mut eng, next);
        Ok(assign_notes(rep, &eng))
    }
}

// ------------------------------------------------------- small-world-flux ---

/// Orientation churn on a Watts–Strogatz small-world topology: a mixed
/// flip/insert/delete trace drawn by the `small-world` workload family
/// ([`crate::spec::WorkloadSpec`]), so `td churn small-world-flux` replays
/// exactly what the fuzz plane generates for that family.
struct SmallWorldFlux;

impl ChurnScenario for SmallWorldFlux {
    fn name(&self) -> &'static str {
        "small-world-flux"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "mixed flip/insert/delete churn on a Watts-Strogatz small-world graph; size = nodes"
    }
    fn default_size(&self) -> u32 {
        96
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        threads: usize,
        mode: RepairMode,
        with_recompute: bool,
    ) -> Result<ChurnReport, String> {
        let spec = crate::spec::WorkloadSpec::new("small-world")?
            .with_size(size)
            .with_seed(seed)
            .with_param("events", events);
        let (mut eng, trace) = spec
            .build()?
            .into_engine(mode, threads, 1, None)
            .ok_or("small-world builds a churn instance")?;
        let mut trace = trace.into_iter();
        let rep = run_engine(
            self.name(),
            size,
            seed,
            with_recompute,
            eng.as_mut(),
            |_| trace.next(),
        );
        Ok(rep.note("spec", spec))
    }
}

// -------------------------------------------------------------- registry ---

static CHURN_REGISTRY: &[&dyn ChurnScenario] = &[
    &EdgeFlipChurn,
    &FlashCrowdChurn,
    &RollingRestartChurn,
    &SmallWorldFlux,
];

/// Every registered churn scenario.
pub fn churn_registry() -> &'static [&'static dyn ChurnScenario] {
    CHURN_REGISTRY
}

/// Looks a churn scenario up by name.
pub fn find_churn(name: &str) -> Option<&'static dyn ChurnScenario> {
    CHURN_REGISTRY.iter().copied().find(|s| s.name() == name)
}

/// Renders the churn registry as an aligned listing.
pub fn churn_listing() -> String {
    let mut t = crate::Table::new(&["name", "kind", "size", "events", "description"]);
    for s in churn_registry() {
        t.row(vec![
            s.name().to_string(),
            s.kind().label().to_string(),
            s.default_size().to_string(),
            s.default_events().to_string(),
            s.description().to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<&str> = churn_registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(find_churn(n).is_some());
        }
        assert!(find_churn("no-such-churn").is_none());
        assert!(churn_listing().contains("edge-flip"));
    }

    #[test]
    fn every_churn_scenario_runs_small() {
        for s in churn_registry() {
            let size = match s.kind() {
                ScenarioKind::Orientation => 64,
                _ => 6,
            };
            let rep = s
                .run(size, 6, 42, 1, RepairMode::Incremental, true)
                .unwrap();
            assert_eq!(rep.scenario, s.name());
            assert_eq!(rep.events, 6);
            assert!(rep.repair.completed, "{}", s.name());
            let rec = rep.recompute.expect("measured");
            assert!(
                rep.repair.node_steps < rec.node_steps,
                "{}: repair {} !< recompute {}",
                s.name(),
                rep.repair.node_steps,
                rec.node_steps
            );
        }
    }

    #[test]
    fn traces_are_deterministic_and_mode_independent() {
        for s in churn_registry() {
            let size = match s.kind() {
                ScenarioKind::Orientation => 24,
                _ => 5,
            };
            let run = |mode| s.run(size, 5, 7, 1, mode, false).unwrap();
            let a = run(RepairMode::Incremental);
            let b = run(RepairMode::Incremental);
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} not deterministic",
                s.name()
            );
            let c = run(RepairMode::FullRecompute);
            assert_eq!(
                a.fingerprint,
                c.fingerprint,
                "{} diverges across modes",
                s.name()
            );
            assert_eq!(a.repair.rounds, c.repair.rounds);
            assert_eq!(a.repair.messages, c.repair.messages);
        }
    }
}

//! The rebuild oracle: [`OrientChurnEngine`] patches topology in place, and
//! this differential test checks it against the engine it replaced, which
//! rebuilt the whole network on every insert and delete (fresh graph from
//! the edge list, orientation carried over by endpoints, fresh `ChurnSim`,
//! dirty set woken). Both must agree on every event: the repair stats, the
//! heads in canonical order, the loads and the lifetime work counters.

use super::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use td_graph::gen::classic::torus;
use td_graph::gen::random::{random_regular, small_world};
use td_graph::GraphBuilder;
use td_local::ExecPerf;

/// The rebuild-per-topology-event engine, kept as the oracle.
struct RebuildEngine {
    sim: ChurnSim<OrientRepairNode>,
    orientation: Orientation,
    mode: RepairMode,
    threads: usize,
    shards: usize,
    /// Work counters of the sims retired by rebuilds.
    perf_retired: ExecPerf,
}

impl RebuildEngine {
    fn new(graph: CsrGraph, orientation: Orientation, threads: usize, shards: usize) -> Self {
        RebuildEngine {
            sim: Self::build_sim(&graph, &orientation),
            orientation,
            mode: RepairMode::Incremental,
            threads,
            shards,
            perf_retired: ExecPerf::default(),
        }
    }

    fn build_sim(graph: &CsrGraph, orientation: &Orientation) -> ChurnSim<OrientRepairNode> {
        let inputs: Vec<RepairInput> = graph
            .nodes()
            .map(|v| OrientChurnEngine::input_of(graph, orientation, v))
            .collect();
        let mut sim = ChurnSim::new(graph.clone(), &inputs);
        sim.set_round_period(PHASES * 2 * id_bits(graph.num_nodes()));
        sim
    }

    fn exec_perf(&self) -> ExecPerf {
        let mut p = self.perf_retired;
        p.absorb(self.sim.exec_perf());
        p
    }

    fn stabilize(&mut self) -> RepairStats {
        let g = self.sim.graph();
        let heads: Vec<NodeId> = self
            .orientation
            .unhappy_edges(g)
            .filter_map(|e| self.orientation.head(e))
            .collect();
        self.wake(&heads);
        self.run_repair()
    }

    fn apply(&mut self, ev: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        let n = g.num_nodes();
        match *ev {
            ChurnEvent::EdgeFlip { u, v } => {
                let e = g
                    .edge_between(u, v)
                    .ok_or_else(|| ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")))?;
                let pu = g.port_of(u, e).expect("port");
                let pv = g.port_of(v, e).expect("port");
                self.orientation.flip(g, e);
                let (lu, lv) = (self.orientation.load(u), self.orientation.load(v));
                for (x, p, lx, ly) in [(u, pu, lu, lv), (v, pv, lv, lu)] {
                    let s = self.sim.state_mut(x);
                    s.toward_me[p.idx()] = !s.toward_me[p.idx()];
                    s.load = lx;
                    s.nbr_load[p.idx()] = ly;
                    s.announce = true;
                }
                self.wake(&[u, v]);
            }
            ChurnEvent::EdgeInsert { u, v } => {
                if u == v || u.idx() >= n || v.idx() >= n {
                    return Err(ChurnError::NoSuchEntity(format!("endpoints {u}, {v}")));
                }
                if g.has_edge(u, v) {
                    return Err(ChurnError::InvalidEvent(format!(
                        "edge {{{u}, {v}}} already exists"
                    )));
                }
                let (lu, lv) = (self.orientation.load(u), self.orientation.load(v));
                let head = if (lu, u.0) <= (lv, v.0) { u } else { v };
                let mut edges: Vec<(u32, u32)> =
                    g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
                edges.push((u.0, v.0));
                self.rebuild(n, &edges, Some((u, v, head)), &[u, v]);
            }
            ChurnEvent::EdgeDelete { u, v } => {
                let del = g
                    .edge_between(u, v)
                    .ok_or_else(|| ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")))?;
                let edges: Vec<(u32, u32)> = g
                    .edge_list()
                    .filter(|&(e, _, _)| e != del)
                    .map(|(_, a, b)| (a.0, b.0))
                    .collect();
                let mut dirty = vec![u, v];
                dirty.extend(g.neighbor_ids(u));
                dirty.extend(g.neighbor_ids(v));
                self.rebuild(n, &edges, None, &dirty);
            }
            _ => return Err(ChurnError::Unsupported("orientation")),
        }
        Ok(self.run_repair())
    }

    fn rebuild(
        &mut self,
        n: usize,
        edges: &[(u32, u32)],
        new_edge: Option<(NodeId, NodeId, NodeId)>,
        dirty: &[NodeId],
    ) {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for &(a, c) in edges {
            b.add_edge(NodeId(a), NodeId(c)).expect("simple edge list");
        }
        let graph = b.build().expect("valid rebuilt graph");
        let old = self.sim.graph();
        let mut orientation = Orientation::unoriented(&graph);
        for (e, a, c) in graph.edge_list() {
            let head = match new_edge {
                Some((u, v, h)) if (a, c) == (u.min(v), u.max(v)) => h,
                _ => {
                    let e_old = old.edge_between(a, c).expect("edge survived");
                    self.orientation.head(e_old).expect("complete")
                }
            };
            orientation.orient(&graph, e, head);
        }
        self.orientation = orientation;
        self.perf_retired.absorb(self.sim.exec_perf());
        self.sim = Self::build_sim(&graph, &self.orientation);
        self.wake(dirty);
    }

    fn wake(&mut self, dirty: &[NodeId]) {
        if dirty.is_empty() {
            return;
        }
        match self.mode {
            RepairMode::Incremental => dirty.iter().for_each(|&v| self.sim.wake(v)),
            RepairMode::FullRecompute => self.sim.wake_all(),
        }
    }

    fn run_repair(&mut self) -> RepairStats {
        let stats = if self.shards > 1 {
            self.sim.run_sharded(self.shards, self.threads, 10_000_000)
        } else {
            self.sim.run(self.threads, 10_000_000)
        };
        assert!(stats.completed);
        // The whole-graph reassembly the rebuild engine paid per event.
        let g = self.sim.graph();
        let mut orientation = Orientation::unoriented(g);
        for (e, u, v) in g.edge_list() {
            let to_u = self.sim.states()[u.idx()].toward_me[g.port_of(u, e).unwrap().idx()];
            let to_v = self.sim.states()[v.idx()].toward_me[g.port_of(v, e).unwrap().idx()];
            assert!(to_u != to_v, "endpoints of {e} disagree");
            orientation.orient(g, e, if to_u { u } else { v });
        }
        self.orientation = orientation;
        stats
    }
}

/// A seeded event stream over `g`'s evolving edge set: flips and deletes
/// name live edges, inserts fresh ones, and every 50 events one event is
/// invalid (a missing edge or an out-of-range node). Insert-heavy and
/// delete-heavy stretches alternate, so rows outgrow their capacity and
/// move, then shrink and refill their slack.
fn event_stream(g: &CsrGraph, events: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_nodes() as u32;
    let mut live: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
    let mut present: HashSet<(u32, u32)> = live.iter().copied().collect();
    let mut out = Vec::with_capacity(events);
    for i in 0..events {
        let (u, v) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        if i % 50 == 49 {
            out.push(match i % 3 {
                0 => ChurnEvent::EdgeFlip {
                    u,
                    v: NodeId(n + 3),
                },
                1 => ChurnEvent::EdgeDelete { u: NodeId(n), v },
                _ => ChurnEvent::EdgeInsert { u, v: u },
            });
            continue;
        }
        let (ins_w, del_w): (u32, u32) = if (i / 200) % 2 == 0 { (3, 1) } else { (1, 3) };
        let roll = rng.gen_range(0..4 + ins_w + del_w);
        let key = (u.0.min(v.0), u.0.max(v.0));
        if roll < ins_w && u != v && !present.contains(&key) {
            present.insert(key);
            live.push(key);
            out.push(ChurnEvent::EdgeInsert { u, v });
        } else if roll < ins_w + del_w && live.len() > n as usize {
            let (a, b) = live.swap_remove(rng.gen_range(0..live.len()));
            present.remove(&(a, b));
            out.push(ChurnEvent::EdgeDelete {
                u: NodeId(b),
                v: NodeId(a),
            });
        } else {
            let (a, b) = live[rng.gen_range(0..live.len())];
            out.push(ChurnEvent::EdgeFlip {
                u: NodeId(a),
                v: NodeId(b),
            });
        }
    }
    out
}

fn canonical(g: &CsrGraph, o: &Orientation) -> (Vec<(u32, u32)>, Vec<u32>) {
    let edges = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
    (edges, o.canonical_heads(g).map(|h| h.0).collect())
}

fn check_against_rebuild(name: &str, g: CsrGraph, events: usize, threads: usize, shards: usize) {
    let mut rng = SmallRng::seed_from_u64(events as u64 ^ g.num_edges() as u64);
    let start = Orientation::random(&g, &mut rng);
    let mut oracle = RebuildEngine::new(g.clone(), start.clone(), threads, shards);
    let mut eng = OrientChurnEngine::new(g.clone(), start, RepairMode::Incremental)
        .with_threads(threads)
        .with_shards(shards);
    assert_eq!(eng.stabilize(), oracle.stabilize(), "{name}: stabilize");
    let trace = event_stream(&g, events, 0x0ac1e ^ g.num_nodes() as u64);
    for (i, ev) in trace.iter().enumerate() {
        let at = format!("{name} at {threads}x{shards}, event {i} {ev:?}");
        let got = eng.apply(ev);
        assert_eq!(got, oracle.apply(ev), "{at}: result");
        assert_eq!(
            canonical(eng.graph(), eng.orientation()),
            canonical(oracle.sim.graph(), &oracle.orientation),
            "{at}: canonical heads"
        );
        assert_eq!(
            eng.orientation().loads(),
            oracle.orientation.loads(),
            "{at}: loads"
        );
        assert_eq!(eng.exec_perf(), oracle.exec_perf(), "{at}: work counters");
        if got.is_ok() && i % 25 == 0 {
            eng.verify().unwrap_or_else(|e| panic!("{at}: {e}"));
            eng.graph()
                .validate()
                .unwrap_or_else(|e| panic!("{at}: {e}"));
        }
    }
    eng.verify().expect("stable at the end");
}

#[test]
fn patched_engine_matches_the_rebuild_oracle_on_every_event() {
    let families = || {
        let mut rng = SmallRng::seed_from_u64(14);
        [
            (
                "random-regular",
                random_regular(48, 4, &mut rng, 500).unwrap(),
            ),
            ("small-world", small_world(48, 4, 0.2, &mut rng)),
            ("torus", torus(6, 8)),
        ]
    };
    // 3 families x 700 events per executor grid point.
    for (threads, shards) in [(1, 1), (2, 1), (2, 2)] {
        for (name, g) in families() {
            check_against_rebuild(name, g, 700, threads, shards);
        }
    }
}

//! The rebuild oracle: [`AssignChurnEngine`] patches membership in place,
//! and this differential test checks it against the engine it replaced,
//! which rebuilt the whole network from host state on every join and
//! leave (fresh graph, fresh `ChurnSim`, dirty set woken) and repaired
//! drains in place. After every event of seeded join/leave/drain streams
//! both must agree on the result, the assignment and the lifetime work
//! counters, and the patched engine's graph rows and node states must
//! equal a network built by [`AssignChurnEngine::build_sim`] from the host
//! state.
//!
//! The oracle runs in two numberings. Servers first, customers in the
//! patched engine's node order, is [`AssignChurnEngine::build_sim`]'s.
//! Customers first by ascending external id, then servers, is the
//! numbering the deleted rebuild used; there role ids are node ids, so it
//! pins the behaviour recorded before membership churn went in place.

use super::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How the oracle numbers its rebuilt network.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    /// Servers `0..ns`, then customers in `order`.
    ServersFirst,
    /// Customers by ascending external id, then servers `nc..nc + ns`.
    CustomersFirst,
}

/// The rebuild-per-membership-event engine, kept as the oracle.
struct RebuildEngine {
    layout: Layout,
    /// Candidate list per external id; `None` = departed.
    lists: Vec<Option<Vec<u32>>>,
    available: Vec<bool>,
    assigned: Vec<Option<u32>>,
    /// Alive external ids in servers-first node order: a leave moves the
    /// last one into the leaver's place, as the patched engine does.
    order: Vec<u32>,
    roles: Arc<RoleIds>,
    sim: ChurnSim<AssignRepairNode>,
    threads: usize,
    shards: usize,
    horizon: Option<u32>,
    /// Work counters of the sims retired by rebuilds.
    perf_retired: ExecPerf,
}

impl RebuildEngine {
    fn new(
        inst: &AssignmentInstance,
        layout: Layout,
        grid: (usize, usize),
        horizon: Option<u32>,
    ) -> Self {
        let nc = inst.num_customers();
        let mut eng = RebuildEngine {
            layout,
            lists: (0..nc).map(|c| Some(inst.servers_of(c).to_vec())).collect(),
            available: vec![true; inst.num_servers()],
            assigned: vec![None; nc],
            order: (0..nc as u32).collect(),
            roles: Arc::new(RoleIds::default()),
            sim: ChurnSim::new(td_graph::CsrGraph::from_edges(0, &[]).unwrap(), &[]),
            threads: grid.0,
            shards: grid.1,
            horizon,
            perf_retired: ExecPerf::default(),
        };
        eng.rebuild();
        eng
    }

    fn ns(&self) -> usize {
        self.available.len()
    }

    /// Node order of the alive customers: (external id, candidate list).
    fn customers(&self) -> Vec<(u32, &[u32])> {
        let mut ids = self.order.clone();
        if self.layout == Layout::CustomersFirst {
            ids.sort_unstable();
        }
        ids.into_iter()
            .map(|c| (c, self.lists[c as usize].as_deref().expect("alive")))
            .collect()
    }

    /// First node id of the customers and of the servers.
    fn bases(&self) -> (usize, usize) {
        match self.layout {
            Layout::ServersFirst => (self.ns(), 0),
            Layout::CustomersFirst => (0, self.order.len()),
        }
    }

    fn node_of_customer(&self, c: u32) -> NodeId {
        let i = match self.layout {
            Layout::ServersFirst => self.order.iter().position(|&x| x == c),
            Layout::CustomersFirst => {
                let mut ids = self.order.clone();
                ids.sort_unstable();
                ids.binary_search(&c).ok()
            }
        };
        NodeId::from(self.bases().0 + i.expect("alive customer"))
    }

    fn rebuild(&mut self) {
        self.perf_retired.absorb(self.sim.exec_perf());
        self.roles = Arc::new(RoleIds::default());
        self.sim = match self.layout {
            Layout::ServersFirst => AssignChurnEngine::build_sim(
                &self.available,
                &self.assigned,
                &self.customers(),
                &self.roles,
            ),
            Layout::CustomersFirst => self.build_customers_first(),
        };
        if let Some(h) = self.horizon {
            self.sim.set_stamp_horizon(h);
        }
    }

    /// The deleted rebuild's network: customers `0..nc` by ascending id,
    /// server `s` at node `nc + s`, role id = node id.
    fn build_customers_first(&self) -> ChurnSim<AssignRepairNode> {
        let customers = self.customers();
        let (nc, ns) = (customers.len(), self.ns());
        let mut loads = vec![0u32; ns];
        for &(c, _) in &customers {
            if let Some(s) = self.assigned[c as usize] {
                loads[s as usize] += 1;
            }
        }
        let mut b = GraphBuilder::new(nc + ns);
        for (i, &(_, list)) in customers.iter().enumerate() {
            for &s in list {
                b.add_edge(NodeId::from(i), NodeId::from(nc + s as usize))
                    .unwrap();
            }
        }
        let bits = id_bits(nc + ns);
        self.roles.publish(0, bits);
        let inputs: Vec<AssignRepairInput> = customers
            .iter()
            .map(|&(c, list)| {
                let load = |s: u32| loads[s as usize];
                let a = self.assigned[c as usize];
                customer_input(c, list, a, load, &self.available, &self.roles)
            })
            .chain((0..ns).map(|s| AssignRepairInput::Server {
                load: loads[s],
                available: self.available[s],
                announce: false,
            }))
            .collect();
        let mut sim = ChurnSim::new(b.build().unwrap(), &inputs);
        sim.set_round_period(round_period(bits));
        sim
    }

    fn exec_perf(&self) -> ExecPerf {
        let mut p = self.perf_retired;
        p.absorb(self.sim.exec_perf());
        p
    }

    fn run_repair(&mut self, dirty: &[NodeId]) -> RepairStats {
        for &v in dirty {
            self.sim.wake(v);
        }
        let cap = self.horizon.map_or(10_000, |h| h / 2);
        let stats = if self.shards > 1 {
            self.sim.run_sharded(self.shards, self.threads, cap)
        } else {
            self.sim.run(self.threads, cap)
        };
        assert!(stats.completed);
        // The whole-network reassembly the rebuild engine paid per event.
        let (cb, sb) = self.bases();
        let mut ids = self.order.clone();
        if self.layout == Layout::CustomersFirst {
            ids.sort_unstable();
        }
        for (i, &c) in ids.iter().enumerate() {
            if let AssignRepairNode::Customer(cs) = &self.sim.states()[cb + i] {
                self.assigned[c as usize] = cs.assigned.map(|p| cs.servers[p.idx()] - sb as u32);
            }
        }
        stats
    }

    fn stabilize(&mut self) -> RepairStats {
        let (cb, _) = self.bases();
        let dirty: Vec<NodeId> = (cb..cb + self.order.len())
            .filter(
                |&v| matches!(&self.sim.states()[v], AssignRepairNode::Customer(c) if c.unhappy()),
            )
            .map(NodeId::from)
            .collect();
        self.run_repair(&dirty)
    }

    fn apply(&mut self, ev: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        match ev {
            ChurnEvent::CustomerJoin { servers } => {
                let mut list = servers.clone();
                list.sort_unstable();
                list.dedup();
                if servers.is_empty() || list.len() != servers.len() {
                    return Err(ChurnError::InvalidEvent("".into()));
                }
                if list.iter().any(|&s| s as usize >= self.ns()) {
                    return Err(ChurnError::NoSuchEntity("candidate server".into()));
                }
                let c = self.lists.len() as u32;
                self.lists.push(Some(list));
                self.assigned.push(None);
                self.order.push(c);
                self.rebuild();
                let v = self.node_of_customer(c);
                Ok(self.run_repair(&[v]))
            }
            &ChurnEvent::CustomerLeave(c) => {
                if self.lists.get(c as usize).is_none_or(|l| l.is_none()) {
                    return Err(ChurnError::NoSuchEntity(format!("customer {c}")));
                }
                let old = self.assigned[c as usize].take();
                self.lists[c as usize] = None;
                let i = self.order.iter().position(|&x| x == c).unwrap();
                self.order.swap_remove(i);
                self.rebuild();
                let dirty: Vec<NodeId> = match old {
                    Some(s) => {
                        let srv = NodeId::from(self.bases().1 + s as usize);
                        self.sim.graph().neighbor_ids(srv).collect()
                    }
                    None => Vec::new(),
                };
                Ok(self.run_repair(&dirty))
            }
            &ChurnEvent::ServerCapacity { server, capacity } => {
                let drain = capacity == 0;
                if server as usize >= self.ns() {
                    return Err(ChurnError::NoSuchEntity(format!("server {server}")));
                }
                if self.available[server as usize] != drain {
                    return Err(ChurnError::InvalidEvent("".into()));
                }
                self.available[server as usize] = !drain;
                let srv = NodeId::from(self.bases().1 + server as usize);
                let mut dirty = vec![srv];
                if drain {
                    for c in self.order.clone() {
                        if self.assigned[c as usize] == Some(server) {
                            self.assigned[c as usize] = None;
                            let v = self.node_of_customer(c);
                            if let AssignRepairNode::Customer(cs) = self.sim.state_mut(v) {
                                cs.assigned = None;
                            }
                            dirty.push(v);
                        }
                    }
                }
                if let AssignRepairNode::Server(ss) = self.sim.state_mut(srv) {
                    ss.available = !drain;
                    ss.load = 0;
                    ss.announce = true;
                }
                Ok(self.run_repair(&dirty))
            }
            _ => Err(ChurnError::Unsupported("assignment")),
        }
    }
}

/// Errors compare by kind: the oracle does not reproduce the messages.
fn kind(r: &Result<RepairStats, ChurnError>) -> Result<RepairStats, u8> {
    r.clone().map_err(|e| match e {
        ChurnError::Unsupported(_) => 0,
        ChurnError::NoSuchEntity(_) => 1,
        ChurnError::InvalidEvent(_) => 2,
    })
}

/// The next event of a seeded stream over the oracle's model. Joins and
/// leaves alternate in stretches of 120 events, so the network grows and
/// shrinks across powers of two; leaves pick the first and the last
/// customer node often; one event in 40 is invalid.
fn next_event(o: &RebuildEngine, i: usize, rng: &mut SmallRng) -> ChurnEvent {
    let ns = o.ns() as u32;
    if i % 40 == 39 {
        return match i % 3 {
            0 => ChurnEvent::CustomerLeave(o.lists.len() as u32 + 5),
            1 => ChurnEvent::CustomerJoin {
                servers: vec![1, 1],
            },
            _ => ChurnEvent::ServerCapacity {
                server: ns,
                capacity: 0,
            },
        };
    }
    let (join_w, leave_w): (u32, u32) = if (i / 120).is_multiple_of(2) {
        (4, 1)
    } else {
        (1, 4)
    };
    let roll = rng.gen_range(0..join_w + leave_w + 2);
    if roll < join_w || o.order.len() < 3 {
        let k = rng.gen_range(1..=3.min(ns));
        let mut servers: Vec<u32> = Vec::new();
        while servers.len() < k as usize {
            let s = rng.gen_range(0..ns);
            if !servers.contains(&s) {
                servers.push(s);
            }
        }
        ChurnEvent::CustomerJoin { servers }
    } else if roll < join_w + leave_w {
        let c = match rng.gen_range(0..4u32) {
            0 => o.order[0],
            1 => *o.order.last().unwrap(),
            _ => o.order[rng.gen_range(0..o.order.len())],
        };
        ChurnEvent::CustomerLeave(c)
    } else {
        let server = rng.gen_range(0..ns);
        let capacity = u32::from(!o.available[server as usize]);
        ChurnEvent::ServerCapacity { server, capacity }
    }
}

fn check_against_rebuild(seed: u64, grid: (usize, usize), horizon: Option<u32>) -> (u32, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let inst = AssignmentInstance::random(20, 6, 1..=3, &mut rng);
    let mut eng = AssignChurnEngine::new(&inst, RepairMode::Incremental)
        .with_threads(grid.0)
        .with_shards(grid.1);
    if let Some(h) = horizon {
        eng = eng.with_max_rounds(h / 2).with_stamp_horizon(h);
    }
    let mut oracles = [Layout::ServersFirst, Layout::CustomersFirst]
        .map(|layout| RebuildEngine::new(&inst, layout, grid, horizon));
    let first = eng.stabilize();
    for o in &mut oracles {
        assert_eq!(first, o.stabilize(), "{:?}: stabilize", o.layout);
    }
    let mut bits_changes = 0u32;
    let mut bits = id_bits(eng.sim.graph().num_nodes());
    let mut edge_leaves = 0usize;
    for i in 0..600 {
        let ev = next_event(&oracles[0], i, &mut rng);
        let at = format!("seed {seed} grid {grid:?} horizon {horizon:?}, event {i} {ev:?}");
        if let ChurnEvent::CustomerLeave(c) = ev {
            let first_or_last = [oracles[0].order.first(), oracles[0].order.last()];
            edge_leaves += usize::from(first_or_last.contains(&Some(&c)));
        }
        let got = eng.apply(&ev);
        for o in &mut oracles {
            let want = o.apply(&ev);
            assert_eq!(kind(&got), kind(&want), "{at}: {:?} result", o.layout);
            assert_eq!(
                eng.assignment_vector(),
                &o.assigned[..],
                "{at}: {:?}",
                o.layout
            );
            if o.layout == Layout::ServersFirst || grid.1 == 1 {
                assert_eq!(eng.exec_perf(), o.exec_perf(), "{at}: {:?} work", o.layout);
            }
        }
        // The patched network is the one a rebuild from host state gives.
        let model = &oracles[0];
        assert_eq!(eng.ext_of, model.order, "{at}: node order");
        let fresh = AssignChurnEngine::build_sim(
            &model.available,
            &model.assigned,
            &model.customers(),
            &Arc::new(RoleIds::default()),
        );
        let g = eng.sim.graph();
        assert_eq!(g.num_nodes(), fresh.graph().num_nodes(), "{at}");
        for v in g.nodes() {
            assert_eq!(g.neighbors(v), fresh.graph().neighbors(v), "{at}: row {v}");
        }
        assert!(eng.sim.states() == fresh.states(), "{at}: node states");
        let now = id_bits(g.num_nodes());
        bits_changes += u32::from(now != bits);
        bits = now;
        if i % 50 == 0 {
            g.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
            eng.verify().unwrap_or_else(|e| panic!("{at}: {e:?}"));
        }
    }
    eng.verify().expect("stable at the end");
    (bits_changes, edge_leaves)
}

#[test]
fn patched_engine_matches_the_rebuild_oracle_on_every_event() {
    for grid in [(1, 1), (2, 1), (2, 2)] {
        for seed in [1, 2] {
            let (bits_changes, edge_leaves) = check_against_rebuild(seed, grid, None);
            assert!(bits_changes >= 4, "id_bits changed {bits_changes} times");
            assert!(edge_leaves >= 20, "{edge_leaves} first/last-node leaves");
        }
    }
}

#[test]
fn patched_engine_matches_the_rebuild_oracle_across_stamp_renormalization() {
    for grid in [(1, 1), (2, 2)] {
        check_against_rebuild(3, grid, Some(1_000));
    }
}

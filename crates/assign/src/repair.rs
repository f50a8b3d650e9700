//! Incremental repair of stable assignments under churn.
//!
//! The dynamic regime of the paper's Section 1.1, on the customers/servers
//! side: once an assignment is stable, a customer joining or leaving, or a
//! server draining for a rolling restart, perturbs happiness only around
//! the touched server — so the distributed protocol can be restarted from
//! the dirtied nodes alone. This is the mode of operation token-dispatching
//! systems run in production (Comte, *Dynamic Load Balancing with Tokens*):
//! a continuous stream of arrivals, departures, drains and rejoins, each
//! absorbed by a local repair.
//!
//! ## The repair protocol
//!
//! [`AssignRepairNode`] runs on the bipartite customer/server network
//! (servers `0..ns`, customers `ns..ns+nc`) under the wake-based
//! [`ChurnSim`] executor, in deterministic 6-phase cycles:
//!
//! * **p0 (request)** — an unhappy customer whose server is donor-role and
//!   that sees a valid acceptor-role target (cached load ≤ own server's
//!   cached load − 2) asks its server for permission to leave;
//! * **p1 (grant)** — a donor-role server grants its smallest-id requester
//!   (at most one departure per server per cycle, which keeps every move's
//!   Σ load² drop at the clean ≥ 2);
//! * **p2 (propose)** — the granted customer proposes to its best valid
//!   target; *unassigned* customers (new joiners, drain victims) propose
//!   unconditionally and with top priority;
//! * **p3 (accept)** — an available acceptor-role server admits one
//!   proposer (unassigned first, then maximum badness, ties toward the
//!   smaller customer id), commits its load, and broadcasts the update;
//! * **p4 (commit)** — the admitted customer switches servers and notifies
//!   the one it left;
//! * **p5 (depart)** — the old server commits the departure and broadcasts.
//!
//! Donor/acceptor roles come from the derandomized bit schedule
//! ([`split_role`]); donors and acceptors partition the servers, so each
//! server's load moves by at most one per cycle and every move is validated
//! against cycle-start loads — each strictly decreases Σ load² by ≥ 2,
//! which terminates the dynamics. Idle nodes step as no-ops, so
//! incremental and full-recompute ([`RepairMode::FullRecompute`]) runs are
//! bit-identical in outputs, rounds, and messages — only node-steps differ.
//!
//! ## Membership churn in place
//!
//! Nothing the protocol decides depends on node numbering: a customer's
//! id is its external id, carried on its requests and proposals, and the
//! servers' role ids come from the shared [`RoleIds`]. So a join pushes one
//! node and a leave swap-removes one ([`ChurnSim::push_node`],
//! [`ChurnSim::swap_remove_node`]), and the host patches only the vacated
//! server's load and its customers' caches — exactly what a network
//! rebuilt from the host state would hold (the `rebuild_oracle` test
//! module checks this after every event).

use crate::assignment::{Assignment, Instability};
use crate::instance::AssignmentInstance;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use td_graph::{GraphBuilder, NodeId, Port};
use td_local::churn::{
    id_bits, split_role, ChurnError, ChurnEvent, ChurnSim, RepairEngine, RepairMode, RepairStats,
};
use td_local::{ExecPerf, Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};

/// Rounds per request/grant/propose/accept/commit/depart cycle.
const PHASES: u32 = 6;

/// `from_load` value marking an unassigned proposer (top priority).
const UNASSIGNED_PRIORITY: u32 = u32::MAX;

/// Message kinds of the assignment repair protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MsgKind {
    /// Unused slot filler.
    #[default]
    None,
    /// Server → customers: "my load is `a`, availability is `b`".
    Update,
    /// Customer → its server: "let me leave this cycle; my id is `b`".
    LeaveRequest,
    /// Server → one customer: "you may leave".
    Grant,
    /// Customer → target server: "admit me; my server's load is `a`, my
    /// id is `b`".
    Propose,
    /// Server → one customer: "admitted; my load is now `a`".
    Accept,
    /// Customer → old server: "I left".
    Left,
}

/// One repair-protocol message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignMsg {
    kind: MsgKind,
    a: u32,
    b: u32,
}

/// The identifiers the role schedule gives the servers, shared by every
/// customer: server `s` takes its role as identifier `offset + s` of
/// `bits` bits. The engine publishes `offset = nc` and `bits = id_bits(nc +
/// ns)` — the ids of a network numbered customers first — between repairs,
/// whenever the customer count changes; no repair sees them move. Relaxed
/// atomics suffice: a run's readers are the host thread or workers it
/// spawns after the write.
#[derive(Debug, Default)]
pub struct RoleIds {
    offset: AtomicU32,
    bits: AtomicU32,
}

impl RoleIds {
    fn publish(&self, offset: usize, bits: u32) {
        self.offset.store(offset as u32, Ordering::Relaxed);
        self.bits.store(bits, Ordering::Relaxed);
    }

    /// True if server `s` is donor-role in `cycle` (see [`split_role`]).
    #[inline]
    fn donor(&self, s: u32, cycle: u32) -> bool {
        let id = self.offset.load(Ordering::Relaxed) + s;
        split_role(id, cycle, self.bits.load(Ordering::Relaxed))
    }
}

impl PartialEq for RoleIds {
    fn eq(&self, other: &Self) -> bool {
        let load = |r: &RoleIds| {
            (
                r.offset.load(Ordering::Relaxed),
                r.bits.load(Ordering::Relaxed),
            )
        };
        load(self) == load(other)
    }
}

/// Host-provided per-node input.
#[derive(Clone, Debug)]
pub enum AssignRepairInput {
    /// A customer node.
    Customer {
        /// My external id: servers break ties by it.
        key: u32,
        /// Port of the server I am assigned to, if any.
        assigned: Option<u32>,
        /// Cached server loads, by port.
        cache_load: Vec<u32>,
        /// Cached server availability, by port.
        cache_avail: Vec<bool>,
        /// The servers' role identifiers.
        roles: Arc<RoleIds>,
    },
    /// A server node.
    Server {
        /// My current load.
        load: u32,
        /// Am I accepting customers?
        available: bool,
        /// Broadcast my state on the first step.
        announce: bool,
    },
}

/// Customer-side state.
#[derive(Debug, PartialEq)]
pub struct CustomerState {
    key: u32,
    roles: Arc<RoleIds>,
    /// My candidate servers, by port (ascending: servers are nodes `0..ns`).
    servers: Vec<u32>,
    /// Port of my current server.
    pub assigned: Option<Port>,
    cache_load: Vec<u32>,
    cache_avail: Vec<bool>,
    proposed: Option<Port>,
}

/// Server-side state.
#[derive(Debug, PartialEq)]
pub struct ServerState {
    /// Current load.
    pub load: u32,
    /// Accepting customers?
    pub available: bool,
    /// Broadcast my state on the next step.
    pub announce: bool,
}

/// Node state: one side of the bipartite repair protocol.
#[derive(Debug, PartialEq)]
pub enum AssignRepairNode {
    /// A customer.
    Customer(CustomerState),
    /// A server.
    Server(ServerState),
}

impl CustomerState {
    /// A valid move target this cycle: available, acceptor-role, and (for
    /// assigned movers) at least 2 below my server's cached load. Returns
    /// the best by (load, server id).
    fn target(&self, cycle: u32) -> Option<Port> {
        let limit = match self.assigned {
            Some(ps) => self.cache_load[ps.idx()].checked_sub(2)?,
            None => u32::MAX,
        };
        let mut best: Option<(u32, u32, usize)> = None;
        for p in 0..self.cache_load.len() {
            if Some(Port::from(p)) == self.assigned
                || !self.cache_avail[p]
                || self.cache_load[p] > limit
                || self.roles.donor(self.servers[p], cycle)
            {
                continue;
            }
            let key = (self.cache_load[p], self.servers[p], p);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, p)| Port::from(p))
    }

    /// Unhappy = could improve by ≥ 2 (assigned) or has any available
    /// option (unassigned) — role-independent, so an unhappy customer stays
    /// awake across cycles until the roles line up.
    fn unhappy(&self) -> bool {
        match self.assigned {
            Some(ps) => {
                let ls = self.cache_load[ps.idx()];
                (0..self.cache_load.len())
                    .any(|p| p != ps.idx() && self.cache_avail[p] && self.cache_load[p] + 2 <= ls)
            }
            None => self.cache_avail.iter().any(|&a| a),
        }
    }
}

impl Protocol for AssignRepairNode {
    type Input = AssignRepairInput;
    type Message = AssignMsg;
    type Output = Option<u32>;

    fn init(node: NodeInit<'_, AssignRepairInput>) -> Self {
        match node.input {
            AssignRepairInput::Customer {
                key,
                assigned,
                cache_load,
                cache_avail,
                roles,
            } => {
                debug_assert_eq!(cache_load.len(), node.degree());
                AssignRepairNode::Customer(CustomerState {
                    key: *key,
                    roles: Arc::clone(roles),
                    servers: node.neighbor_ids.to_vec(),
                    assigned: assigned.map(|p| Port::from(p as usize)),
                    cache_load: cache_load.clone(),
                    cache_avail: cache_avail.clone(),
                    proposed: None,
                })
            }
            AssignRepairInput::Server {
                load,
                available,
                announce,
            } => AssignRepairNode::Server(ServerState {
                load: *load,
                available: *available,
                announce: *announce,
            }),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, AssignMsg>,
        outbox: &mut Outbox<'_, '_, AssignMsg>,
    ) -> Status {
        let phase = ctx.round % PHASES;
        let cycle = ctx.round / PHASES;
        match self {
            AssignRepairNode::Customer(c) => {
                // Server updates can arrive at any phase; refresh first.
                for (p, m) in inbox.iter() {
                    if m.kind == MsgKind::Update {
                        c.cache_load[p.idx()] = m.a;
                        c.cache_avail[p.idx()] = m.b == 1;
                    }
                }
                match phase {
                    0 => {
                        c.proposed = None;
                        if let Some(ps) = c.assigned {
                            // My server must be donor-role to let me go.
                            if c.roles.donor(c.servers[ps.idx()], cycle)
                                && c.target(cycle).is_some()
                            {
                                outbox.send(
                                    ps,
                                    AssignMsg {
                                        kind: MsgKind::LeaveRequest,
                                        a: 0,
                                        b: c.key,
                                    },
                                );
                            }
                        }
                    }
                    2 => {
                        let granted = match c.assigned {
                            Some(ps) => {
                                matches!(inbox.get(ps), Some(m) if m.kind == MsgKind::Grant)
                            }
                            None => true, // joiners need no permission
                        };
                        if granted {
                            if let Some(pt) = c.target(cycle) {
                                let from_load = match c.assigned {
                                    Some(ps) => c.cache_load[ps.idx()],
                                    None => UNASSIGNED_PRIORITY,
                                };
                                outbox.send(
                                    pt,
                                    AssignMsg {
                                        kind: MsgKind::Propose,
                                        a: from_load,
                                        b: c.key,
                                    },
                                );
                                c.proposed = Some(pt);
                            }
                        }
                    }
                    4 => {
                        if let Some(pt) = c.proposed.take() {
                            if let Some(m) = inbox.get(pt) {
                                if m.kind == MsgKind::Accept {
                                    c.cache_load[pt.idx()] = m.a;
                                    if let Some(ps) = c.assigned {
                                        outbox.send(
                                            ps,
                                            AssignMsg {
                                                kind: MsgKind::Left,
                                                ..AssignMsg::default()
                                            },
                                        );
                                    }
                                    c.assigned = Some(pt);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                if c.unhappy() || c.proposed.is_some() {
                    Status::Continue
                } else {
                    Status::Halt
                }
            }
            AssignRepairNode::Server(s) => {
                if s.announce {
                    s.announce = false;
                    outbox.broadcast(AssignMsg {
                        kind: MsgKind::Update,
                        a: s.load,
                        b: u32::from(s.available),
                    });
                }
                match phase {
                    1 => {
                        // Grant the smallest-id requester.
                        let mut best: Option<(u32, Port)> = None;
                        for (p, m) in inbox.iter() {
                            if m.kind != MsgKind::LeaveRequest {
                                continue;
                            }
                            let key = (m.b, p);
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                        if let Some((_, p)) = best {
                            outbox.send(
                                p,
                                AssignMsg {
                                    kind: MsgKind::Grant,
                                    ..AssignMsg::default()
                                },
                            );
                        }
                    }
                    3 if s.available => {
                        {
                            // Admit one proposer: unassigned first, then
                            // max badness, ties toward the smaller id.
                            let mut best: Option<(bool, u32, i64, Port)> = None;
                            for (p, m) in inbox.iter() {
                                if m.kind != MsgKind::Propose {
                                    continue;
                                }
                                let unassigned = m.a == UNASSIGNED_PRIORITY;
                                if !unassigned && m.a < s.load + 2 {
                                    continue; // no longer a valid improvement
                                }
                                let key = (unassigned, m.a, -(m.b as i64), p);
                                if best.is_none_or(|b| key > b) {
                                    best = Some(key);
                                }
                            }
                            if let Some((_, _, _, p)) = best {
                                s.load += 1;
                                outbox.broadcast(AssignMsg {
                                    kind: MsgKind::Update,
                                    a: s.load,
                                    b: 1,
                                });
                                // The accept overwrites the update on the
                                // winner's port and carries the load itself.
                                outbox.send(
                                    p,
                                    AssignMsg {
                                        kind: MsgKind::Accept,
                                        a: s.load,
                                        b: 0,
                                    },
                                );
                            }
                        }
                    }
                    5 => {
                        let departures = inbox
                            .iter()
                            .filter(|(_, m)| m.kind == MsgKind::Left)
                            .count();
                        if departures > 0 {
                            debug_assert_eq!(departures, 1, "one grant, one departure");
                            s.load -= departures as u32;
                            outbox.broadcast(AssignMsg {
                                kind: MsgKind::Update,
                                a: s.load,
                                b: u32::from(s.available),
                            });
                        }
                    }
                    _ => {}
                }
                // Servers are purely reactive: messages wake them.
                Status::Halt
            }
        }
    }

    fn finish(self) -> Option<u32> {
        match self {
            AssignRepairNode::Customer(c) => c.assigned.map(|p| p.0),
            AssignRepairNode::Server(_) => None,
        }
    }
}

/// A live assignment instance under churn: applies customer joins/leaves
/// and server drains/rejoins ([`ChurnEvent::ServerCapacity`]) and repairs
/// stability incrementally (or via the full-recompute fallback).
///
/// External ids are stable across events: customers keep the id they were
/// created with (departed ids are never reused), servers are `0..ns`
/// forever. The network lives as long as the engine: server `s` is node
/// `s`, and the alive customers fill nodes `ns..ns + nc` in no particular
/// order. A join pushes one node, a leave moves the last customer into the
/// leaver's node, and a drain or rejoin patches states only; each costs
/// O(poly Δ) host work, whatever the instance size.
pub struct AssignChurnEngine {
    /// Availability per server.
    available: Vec<bool>,
    /// Maintained assignment per external customer id.
    assigned: Vec<Option<u32>>,
    /// Network node of each external customer id; `None` = departed.
    node_of: Vec<Option<u32>>,
    /// External id of the customer at node `ns + i`, by `i`.
    ext_of: Vec<u32>,
    /// The servers' role identifiers every customer reads.
    roles: Arc<RoleIds>,
    sim: ChurnSim<AssignRepairNode>,
    mode: RepairMode,
    threads: usize,
    shards: usize,
    max_rounds: u32,
}

impl AssignChurnEngine {
    /// Builds an engine from an instance; all servers available, all
    /// customers initially unassigned. Call
    /// [`AssignChurnEngine::stabilize`] to compute the first assignment.
    pub fn new(inst: &AssignmentInstance, mode: RepairMode) -> Self {
        let nc = inst.num_customers();
        let available = vec![true; inst.num_servers()];
        let assigned = vec![None; nc];
        let customers: Vec<(u32, &[u32])> =
            (0..nc).map(|c| (c as u32, inst.servers_of(c))).collect();
        let roles = Arc::new(RoleIds::default());
        let sim = Self::build_sim(&available, &assigned, &customers, &roles);
        let ns = available.len() as u32;
        AssignChurnEngine {
            available,
            assigned,
            node_of: (0..nc as u32).map(|c| Some(ns + c)).collect(),
            ext_of: (0..nc as u32).collect(),
            roles,
            sim,
            mode,
            threads: 1,
            shards: 1,
            max_rounds: 10_000_000,
        }
    }

    /// Sets the worker thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.threads = threads;
        self
    }

    /// Sets the shard count: `shards > 1` runs repairs on the sharded
    /// message plane (locality-aware partition, batched boundary delivery);
    /// repair traces are bit-identical either way.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Caps the rounds of a single repair run.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Lowers the stamp-renormalization horizon of the underlying sim — a
    /// test hook for crossing the wrap point quickly; see
    /// [`ChurnSim::set_stamp_horizon`].
    pub fn with_stamp_horizon(mut self, horizon: u32) -> Self {
        self.sim.set_stamp_horizon(horizon);
        self
    }

    /// Lifetime [`td_local::ExecPerf`] work counters over every repair this
    /// engine has run.
    pub fn exec_perf(&self) -> td_local::ExecPerf {
        self.sim.exec_perf()
    }

    fn num_servers(&self) -> usize {
        self.available.len()
    }

    /// Builds the repair network from host state: servers `0..ns` (one per
    /// entry of `available`), then one customer per entry of `customers` —
    /// its external id and sorted candidate list — with loads and caches
    /// computed from `assigned`. Publishes the role ids into `roles`.
    pub(crate) fn build_sim(
        available: &[bool],
        assigned: &[Option<u32>],
        customers: &[(u32, &[u32])],
        roles: &Arc<RoleIds>,
    ) -> ChurnSim<AssignRepairNode> {
        let ns = available.len();
        let n = ns + customers.len();
        let mut loads = vec![0u32; ns];
        for &(c, _) in customers {
            if let Some(s) = assigned[c as usize] {
                loads[s as usize] += 1;
            }
        }
        let mut b = GraphBuilder::new(n);
        for (i, &(_, list)) in customers.iter().enumerate() {
            for &s in list {
                b.add_edge(NodeId::from(ns + i), NodeId(s))
                    .expect("customer lists are duplicate-free");
            }
        }
        let graph = b.build().expect("valid bipartite network");
        let bits = id_bits(n);
        roles.publish(customers.len(), bits);
        let inputs: Vec<AssignRepairInput> = (0..ns)
            .map(|s| AssignRepairInput::Server {
                load: loads[s],
                available: available[s],
                announce: false,
            })
            .chain(customers.iter().map(|&(c, list)| {
                let load = |s: u32| loads[s as usize];
                customer_input(c, list, assigned[c as usize], load, available, roles)
            }))
            .collect();
        let mut sim = ChurnSim::new(graph, &inputs);
        sim.set_round_period(round_period(bits));
        sim
    }

    /// Publishes the role ids and the round period of a network of `nc`
    /// customers; called before the patch that makes it so, because the
    /// patch realigns the round counter to the period.
    fn renumber(&mut self, nc: usize) {
        let bits = id_bits(nc + self.num_servers());
        self.roles.publish(nc, bits);
        self.sim.set_round_period(round_period(bits));
    }

    fn server_mut(&mut self, s: u32) -> &mut ServerState {
        match self.sim.state_mut(NodeId(s)) {
            AssignRepairNode::Server(ss) => ss,
            AssignRepairNode::Customer(_) => unreachable!("servers are nodes 0..ns"),
        }
    }

    /// The alive customers as (external id, node), ascending by id.
    fn alive(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        (0u32..)
            .zip(&self.node_of)
            .filter_map(|(c, v)| v.map(|v| (c, NodeId(v))))
    }

    /// The available candidate servers of customer node `v`.
    fn options(&self, v: NodeId) -> impl Iterator<Item = u32> + '_ {
        let g = self.sim.graph();
        g.neighbors(v)
            .iter()
            .copied()
            .filter(|&s| self.available[s as usize])
    }

    fn wake_dirty(&mut self, dirty: &[NodeId]) {
        if dirty.is_empty() {
            return;
        }
        match self.mode {
            RepairMode::Incremental => {
                for &v in dirty {
                    self.sim.wake(v);
                }
            }
            RepairMode::FullRecompute => self.sim.wake_all(),
        }
    }

    fn run_repair(&mut self) -> RepairStats {
        let stats = if self.shards > 1 {
            self.sim
                .run_sharded(self.shards, self.threads, self.max_rounds)
        } else {
            self.sim.run(self.threads, self.max_rounds)
        };
        assert!(stats.completed, "repair hit the round cap");
        // Sync the maintained assignment from the customers the repair
        // stepped: no other node state changed.
        let ns = self.num_servers();
        for v in self.sim.stepped() {
            if let AssignRepairNode::Customer(cs) = &self.sim.states()[v.idx()] {
                let c = self.ext_of[v.idx() - ns] as usize;
                self.assigned[c] = cs.assigned.map(|p| cs.servers[p.idx()]);
            }
        }
        stats
    }

    /// Wakes every unhappy or unassigned-with-options customer (or every
    /// node under [`RepairMode::FullRecompute`]) and runs to quiescence.
    pub fn stabilize(&mut self) -> RepairStats {
        let dirty: Vec<NodeId> = (self.num_servers()..self.sim.graph().num_nodes())
            .filter(|&v| match &self.sim.states()[v] {
                AssignRepairNode::Customer(c) => c.unhappy(),
                AssignRepairNode::Server(_) => false,
            })
            .map(NodeId::from)
            .collect();
        self.wake_dirty(&dirty);
        self.run_repair()
    }

    /// Applies one event and repairs. Returns the repair cost.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        match event {
            ChurnEvent::CustomerJoin { servers } => self.apply_join(servers),
            ChurnEvent::CustomerLeave(c) => self.apply_leave(*c),
            ChurnEvent::ServerCapacity { server, capacity } => {
                self.apply_capacity(*server, *capacity)
            }
            _ => Err(ChurnError::Unsupported("assignment")),
        }
    }

    fn apply_join(&mut self, servers: &[u32]) -> Result<RepairStats, ChurnError> {
        if servers.is_empty() {
            return Err(ChurnError::InvalidEvent("customer with no servers".into()));
        }
        let mut list = servers.to_vec();
        list.sort_unstable();
        list.dedup();
        if list.len() != servers.len() {
            return Err(ChurnError::InvalidEvent(
                "duplicate candidate server".into(),
            ));
        }
        if list.iter().any(|&s| s as usize >= self.num_servers()) {
            return Err(ChurnError::NoSuchEntity("candidate server".into()));
        }
        let ext = self.node_of.len() as u32;
        self.renumber(self.ext_of.len() + 1);
        let load = |s: u32| match &self.sim.states()[s as usize] {
            AssignRepairNode::Server(ss) => ss.load,
            AssignRepairNode::Customer(_) => unreachable!("servers are nodes 0..ns"),
        };
        let input = customer_input(ext, &list, None, load, &self.available, &self.roles);
        let nbrs: Vec<NodeId> = list.iter().map(|&s| NodeId(s)).collect();
        let v = self.sim.push_node(&nbrs, &input);
        self.node_of.push(Some(v.0));
        self.ext_of.push(ext);
        self.assigned.push(None);
        self.wake_dirty(&[v]);
        Ok(self.run_repair())
    }

    fn apply_leave(&mut self, c: u32) -> Result<RepairStats, ChurnError> {
        let Some(v) = self.node_of.get(c as usize).copied().flatten() else {
            return Err(ChurnError::NoSuchEntity(format!("customer {c}")));
        };
        let old_server = self.assigned[c as usize].take();
        self.node_of[c as usize] = None;
        self.renumber(self.ext_of.len() - 1);
        // The last customer moves into the leaver's node.
        let i = v as usize - self.num_servers();
        self.sim.swap_remove_node(NodeId(v));
        self.ext_of.swap_remove(i);
        if let Some(&moved) = self.ext_of.get(i) {
            self.node_of[moved as usize] = Some(v);
        }
        // The vacated server's load drops by one: patch it and its
        // customers' caches to what a rebuilt network would hold (no
        // announce, no message), and let those customers move into it.
        let dirty: Vec<NodeId> = match old_server {
            Some(s) => {
                let srv = self.server_mut(s);
                srv.load -= 1;
                let load = srv.load;
                let dirty: Vec<NodeId> = self.sim.graph().neighbor_ids(NodeId(s)).collect();
                for &u in &dirty {
                    if let AssignRepairNode::Customer(cs) = self.sim.state_mut(u) {
                        let p = cs
                            .servers
                            .binary_search(&s)
                            .expect("a neighbor's candidate");
                        cs.cache_load[p] = load;
                    }
                }
                dirty
            }
            None => Vec::new(),
        };
        self.wake_dirty(&dirty);
        Ok(self.run_repair())
    }

    fn apply_capacity(&mut self, server: u32, capacity: u32) -> Result<RepairStats, ChurnError> {
        if server as usize >= self.num_servers() {
            return Err(ChurnError::NoSuchEntity(format!("server {server}")));
        }
        let drain = capacity == 0;
        if self.available[server as usize] != drain {
            return Err(ChurnError::InvalidEvent(format!(
                "server {server} already {}",
                if drain { "drained" } else { "available" }
            )));
        }
        self.available[server as usize] = !drain;
        let srv_node = NodeId(server);
        let mut dirty = vec![srv_node];
        if drain {
            // Evict the server's customers, found on its row: they rejoin
            // through the unassigned path of the protocol.
            let ns = self.num_servers();
            dirty.extend(
                self.sim
                    .graph()
                    .neighbor_ids(srv_node)
                    .filter(|u| self.assigned[self.ext_of[u.idx() - ns] as usize] == Some(server)),
            );
            for &u in &dirty[1..] {
                self.assigned[self.ext_of[u.idx() - ns] as usize] = None;
                if let AssignRepairNode::Customer(cs) = self.sim.state_mut(u) {
                    cs.assigned = None;
                }
            }
        }
        let srv = self.server_mut(server);
        srv.available = !drain;
        srv.load = 0;
        srv.announce = true;
        self.wake_dirty(&dirty);
        Ok(self.run_repair())
    }

    /// The maintained assignment of external customer `c` (None if
    /// unassigned or departed).
    pub fn server_of(&self, c: u32) -> Option<u32> {
        self.assigned.get(c as usize).copied().flatten()
    }

    /// The full external-id assignment vector — the bit-compared quantity
    /// of the differential tests.
    pub fn assignment_vector(&self) -> &[Option<u32>] {
        &self.assigned
    }

    /// Per-server loads of the maintained assignment.
    pub fn server_loads(&self) -> Vec<u32> {
        let mut loads = vec![0u32; self.num_servers()];
        for &c in &self.ext_of {
            if let Some(s) = self.assigned[c as usize] {
                loads[s as usize] += 1;
            }
        }
        loads
    }

    /// Number of alive customers.
    pub fn num_alive(&self) -> usize {
        self.ext_of.len()
    }

    /// The semi-matching cost Σ load(load+1)/2 of the maintained assignment.
    pub fn cost(&self) -> u64 {
        self.server_loads()
            .iter()
            .map(|&l| (l as u64) * (l as u64 + 1) / 2)
            .sum()
    }

    /// The *effective instance*: alive customers with their candidate lists
    /// restricted to available servers; customers with no available
    /// candidate are dropped (they legitimately stay unassigned). Returns
    /// the instance, its assignment, and the external ids it covers.
    pub fn effective_instance(&self) -> (AssignmentInstance, Assignment, Vec<u32>) {
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for (c, v) in self.alive() {
            let list: Vec<u32> = self.options(v).collect();
            if !list.is_empty() {
                lists.push(list);
                ids.push(c);
            }
        }
        let inst = AssignmentInstance::new(self.num_servers(), &lists);
        let mut a = Assignment::unassigned(&inst);
        for (i, &c) in ids.iter().enumerate() {
            if let Some(s) = self.assigned[c as usize] {
                a.assign(i, s);
            }
        }
        (inst, a, ids)
    }

    /// Verifies the maintained assignment is stable on the effective
    /// instance, and that only option-less customers are unassigned.
    pub fn verify(&self) -> Result<(), Instability> {
        for (c, v) in self.alive() {
            // No available candidate: must be unassigned.
            if self.assigned[c as usize].is_some() && self.options(v).next().is_none() {
                return Err(Instability::Unassigned(c as usize));
            }
        }
        let (inst, a, _) = self.effective_instance();
        a.verify_stable(&inst)
    }
}

/// `round % PHASES` picks the phase; [`split_role`] reads `cycle % 2` and
/// `(cycle / 2) % bits` — jointly periodic in `2 · bits` cycles. Declared
/// so stamp renormalization and patches can never disturb the schedule.
fn round_period(bits: u32) -> u32 {
    PHASES * 2 * bits
}

/// The input of a customer with external id `key`, sorted candidate list
/// `list` and assignment `assigned`, given each server's load.
fn customer_input(
    key: u32,
    list: &[u32],
    assigned: Option<u32>,
    load: impl Fn(u32) -> u32,
    available: &[bool],
    roles: &Arc<RoleIds>,
) -> AssignRepairInput {
    // Ports follow the sorted list: servers are the nodes below customers.
    let port = assigned.map(|s| list.iter().position(|&x| x == s).expect("assigned ∈ list"));
    AssignRepairInput::Customer {
        key,
        assigned: port.map(|p| p as u32),
        cache_load: list.iter().map(|&s| load(s)).collect(),
        cache_avail: list.iter().map(|&s| available[s as usize]).collect(),
        roles: Arc::clone(roles),
    }
}

impl RepairEngine for AssignChurnEngine {
    fn stabilize(&mut self) -> RepairStats {
        AssignChurnEngine::stabilize(self)
    }

    fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        AssignChurnEngine::apply(self, event)
    }

    fn verify(&self) -> Result<(), String> {
        AssignChurnEngine::verify(self).map_err(|e| format!("{e:?}"))
    }

    fn exec_perf(&self) -> ExecPerf {
        AssignChurnEngine::exec_perf(self)
    }

    fn solution_words(&self) -> Vec<u64> {
        self.assigned
            .iter()
            .map(|a| a.map_or(0, |s| s as u64 + 1))
            .collect()
    }

    fn max_load(&self) -> u32 {
        self.server_loads().into_iter().max().unwrap_or(0)
    }

    fn num_nodes(&self) -> usize {
        self.sim.graph().num_nodes()
    }

    fn live_nodes(&self) -> usize {
        self.num_alive()
    }

    /// Candidate adjacencies of the effective instance: alive customers to
    /// available servers.
    fn num_edges(&self) -> usize {
        self.alive().map(|(_, v)| self.options(v).count()).sum()
    }

    /// Stabilizes a full-recompute twin over the effective instance, all
    /// customers unassigned.
    fn recompute(&self) -> RepairStats {
        let (inst, _, _) = self.effective_instance();
        AssignChurnEngine::new(&inst, RepairMode::FullRecompute)
            .with_threads(self.threads)
            .with_shards(self.shards)
            .stabilize()
    }
}

#[cfg(test)]
mod rebuild_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform(nc: usize, ns: usize, seed: u64) -> AssignmentInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        AssignmentInstance::random(nc, ns, 2.min(ns)..=3.min(ns), &mut rng)
    }

    fn stable_engine(inst: &AssignmentInstance, mode: RepairMode) -> AssignChurnEngine {
        let mut eng = AssignChurnEngine::new(inst, mode);
        let stats = eng.stabilize();
        assert!(stats.completed);
        eng.verify().expect("stabilize reaches stability");
        eng
    }

    #[test]
    fn stabilize_assigns_everyone() {
        let inst = uniform(30, 8, 1);
        let eng = stable_engine(&inst, RepairMode::Incremental);
        assert_eq!(eng.num_alive(), 30);
        for c in 0..30 {
            assert!(eng.server_of(c).is_some(), "customer {c} unassigned");
        }
    }

    #[test]
    fn join_and_leave_repair() {
        let inst = uniform(20, 6, 2);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        let stats = eng
            .apply(&ChurnEvent::CustomerJoin {
                servers: vec![0, 1, 2],
            })
            .unwrap();
        assert!(stats.completed);
        eng.verify().unwrap();
        assert_eq!(eng.num_alive(), 21);
        assert!(eng.server_of(20).is_some());
        eng.apply(&ChurnEvent::CustomerLeave(20)).unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.num_alive(), 20);
        assert_eq!(eng.server_of(20), None);
    }

    #[test]
    fn drain_and_rejoin_rebalance() {
        let inst = uniform(24, 6, 3);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        let loads_before = eng.server_loads();
        eng.apply(&ChurnEvent::ServerCapacity {
            server: 0,
            capacity: 0,
        })
        .unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.server_loads()[0], 0);
        // Customers whose only candidate was server 0 stay unassigned;
        // everyone else found a home.
        eng.apply(&ChurnEvent::ServerCapacity {
            server: 0,
            capacity: 1,
        })
        .unwrap();
        eng.verify().unwrap();
        let _ = loads_before;
    }

    #[test]
    fn incremental_matches_full_recompute_bit_for_bit() {
        for seed in 0..5u64 {
            let inst = uniform(18, 5, seed);
            let mut inc = stable_engine(&inst, RepairMode::Incremental);
            let mut full = stable_engine(&inst, RepairMode::FullRecompute);
            assert_eq!(inc.assignment_vector(), full.assignment_vector());
            let mut rng = SmallRng::seed_from_u64(900 + seed);
            for step in 0..12 {
                let ev = match rng.gen_range(0..4u32) {
                    0 => {
                        // Two distinct random candidate servers.
                        let a = rng.gen_range(0..5u32);
                        let b = (a + 1 + rng.gen_range(0..4u32)) % 5;
                        ChurnEvent::CustomerJoin {
                            servers: vec![a, b],
                        }
                    }
                    1 => ChurnEvent::CustomerLeave(
                        rng.gen_range(0..inc.assignment_vector().len() as u32),
                    ),
                    2 => ChurnEvent::ServerCapacity {
                        server: rng.gen_range(0..5),
                        capacity: 0,
                    },
                    _ => ChurnEvent::ServerCapacity {
                        server: rng.gen_range(0..5),
                        capacity: 4,
                    },
                };
                let ri = inc.apply(&ev);
                let rf = full.apply(&ev);
                match (&ri, &rf) {
                    (Ok(si), Ok(sf)) => {
                        assert_eq!(si.rounds, sf.rounds, "step {step} {ev:?}");
                        assert_eq!(si.messages, sf.messages, "step {step} {ev:?}");
                        assert!(si.node_steps <= sf.node_steps);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("modes diverged on {ev:?}: {ri:?} vs {rf:?}"),
                }
                assert_eq!(
                    inc.assignment_vector(),
                    full.assignment_vector(),
                    "step {step} {ev:?}"
                );
                inc.verify().unwrap();
            }
        }
    }

    #[test]
    fn join_event_is_local() {
        // A big stable farm: one join must not wake the world.
        let inst = uniform(400, 40, 7);
        let mut inc = stable_engine(&inst, RepairMode::Incremental);
        let mut full = stable_engine(&inst, RepairMode::FullRecompute);
        let ev = ChurnEvent::CustomerJoin {
            servers: vec![3, 17, 29],
        };
        let si = inc.apply(&ev).unwrap();
        let sf = full.apply(&ev).unwrap();
        assert_eq!(inc.assignment_vector(), full.assignment_vector());
        assert!(
            si.node_steps + 350 <= sf.node_steps,
            "incremental {} vs full {}",
            si.node_steps,
            sf.node_steps
        );
    }

    #[test]
    fn rejects_foreign_and_invalid_events() {
        let inst = uniform(6, 3, 9);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        assert_eq!(
            eng.apply(&ChurnEvent::TokenArrive(NodeId(0))),
            Err(ChurnError::Unsupported("assignment"))
        );
        assert!(matches!(
            eng.apply(&ChurnEvent::CustomerJoin { servers: vec![] }),
            Err(ChurnError::InvalidEvent(_))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::CustomerJoin { servers: vec![99] }),
            Err(ChurnError::NoSuchEntity(_))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::ServerCapacity {
                server: 0,
                capacity: 5
            }),
            Err(ChurnError::InvalidEvent(_)) // already available
        ));
    }

    #[test]
    fn rolling_restart_over_every_server() {
        let inst = uniform(30, 5, 13);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        for s in 0..5u32 {
            eng.apply(&ChurnEvent::ServerCapacity {
                server: s,
                capacity: 0,
            })
            .unwrap();
            eng.verify().unwrap();
            eng.apply(&ChurnEvent::ServerCapacity {
                server: s,
                capacity: 1,
            })
            .unwrap();
            eng.verify().unwrap();
        }
        for c in 0..30 {
            assert!(eng.server_of(c).is_some());
        }
    }
}

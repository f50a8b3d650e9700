//! The churn plane: incremental ("wake-based") protocol execution for
//! dynamic instances.
//!
//! The paper's central motivation for *stable* solutions is dynamic: when
//! one edge or customer changes, a stable solution can be repaired locally
//! instead of recomputed from scratch (Section 1.1). This module provides
//! the executor-level machinery for that regime:
//!
//! * [`ChurnEvent`] — the shared vocabulary of instance updates (edge
//!   insert/delete/flip, token arrival/drop, customer join/leave, server
//!   capacity change). Each problem family's churn engine consumes the
//!   variants that apply to it and rejects the rest.
//! * [`ChurnSim`] — a persistent simulator in which nodes *quiesce* instead
//!   of halting forever: [`crate::Status::Halt`] parks the node, and any
//!   later message wakes it. Between repairs the node states, the message
//!   arena, and the round counter all persist, so a repair touches exactly
//!   the nodes that messages reach — untouched regions are never stepped
//!   and pay **zero protocol work**. Topology churn is patched in place
//!   too ([`ChurnSim::insert_edge`], [`ChurnSim::remove_edge`],
//!   [`ChurnSim::push_node`], [`ChurnSim::swap_remove_node`],
//!   [`ChurnSim::reinit`]): an edge or node update costs O(poly Δ), not a
//!   rebuild.
//! * [`RepairStats`] — rounds / messages / node-steps of one repair run,
//!   the quantities experiment E15 compares against full recomputation.
//! * [`RepairEngine`] — the interface every family's churn engine
//!   implements, and [`drive`], the one loop that runs an engine through a
//!   trace (stabilize, verify, then apply and verify per event).
//!
//! ## How sleeping nodes stay free
//!
//! The executor keeps a sorted *awake list* instead of scanning all `n`
//! nodes per round, and the [`crate::arena::MessageArena`]'s stamp
//! machinery does the rest: slots written in earlier repairs are never
//! cleared — they are invalidated by their stale stamps (the round counter
//! is monotonic across repairs, so no live stamp ever collides). Waking is
//! piggybacked on sending: the moment a node writes into a neighbor's
//! mailbox slot it also marks the neighbor in a [`WakeSet`], so the
//! neighbor is stepped in the round the message is delivered.
//!
//! ## Determinism
//!
//! As with [`crate::Simulator`], the parallel executor is bit-identical to
//! the sequential one: the awake set of a round is a *set* (derived from
//! messages and `Continue` statuses, both scheduling-independent), nodes
//! are stepped against the read buffer of the previous round, and every
//! mailbox slot has exactly one writer per round. The differential tests in
//! `tests/churn_differential.rs` enforce this across 1/2/4/8 threads.

use crate::arena::MessageArena;
use crate::metrics::ExecPerf;
use crate::protocol::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, RouteRef, Status};
use crate::shard::{BatchQueues, SendPtr, ShardPlane, ShardRoute};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use td_graph::{BuildError, CsrGraph, EdgeId, NodeId, Partition};

/// One update to a live instance. The vocabulary is shared across the
/// problem families; each churn engine accepts the variants that make sense
/// for it (e.g. [`ChurnEvent::TokenArrive`] for token games,
/// [`ChurnEvent::CustomerJoin`] for assignments) and returns an error for
/// the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Insert the edge `{u, v}`.
    EdgeInsert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Delete the edge `{u, v}`.
    EdgeDelete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Adversarially flip the orientation of the edge `{u, v}` (the
    /// instance graph is unchanged; the maintained *solution* is perturbed).
    EdgeFlip {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A token appears on node `v` (token games).
    TokenArrive(NodeId),
    /// The token of node `v` disappears (token games; `v` must be a
    /// traversal origin).
    TokenDrop(NodeId),
    /// A new customer joins with the given candidate server list
    /// (assignments; the engine allocates the customer id).
    CustomerJoin {
        /// Candidate servers of the new customer (external server ids).
        servers: Vec<u32>,
    },
    /// Customer `c` (external id) leaves.
    CustomerLeave(u32),
    /// Server `server` changes capacity. `0` drains the server (its
    /// customers must re-balance elsewhere); any non-zero value makes it
    /// available again. Engines currently treat all non-zero capacities as
    /// unbounded.
    ServerCapacity {
        /// The server (external id).
        server: u32,
        /// New capacity; `0` = drained.
        capacity: u32,
    },
}

impl ChurnEvent {
    /// Encodes the event as one `td-trace/v1` line: a lowercase keyword
    /// followed by space-separated integer operands (`join` uses a
    /// comma-separated server list, `-` when empty). [`decode`] inverts
    /// this exactly.
    ///
    /// [`decode`]: ChurnEvent::decode
    pub fn encode(&self) -> String {
        match self {
            ChurnEvent::EdgeInsert { u, v } => format!("ins {} {}", u.0, v.0),
            ChurnEvent::EdgeDelete { u, v } => format!("del {} {}", u.0, v.0),
            ChurnEvent::EdgeFlip { u, v } => format!("flip {} {}", u.0, v.0),
            ChurnEvent::TokenArrive(v) => format!("arrive {}", v.0),
            ChurnEvent::TokenDrop(v) => format!("drop {}", v.0),
            ChurnEvent::CustomerJoin { servers } => {
                if servers.is_empty() {
                    "join -".to_string()
                } else {
                    let list: Vec<String> = servers.iter().map(u32::to_string).collect();
                    format!("join {}", list.join(","))
                }
            }
            ChurnEvent::CustomerLeave(c) => format!("leave {c}"),
            ChurnEvent::ServerCapacity { server, capacity } => {
                format!("cap {server} {capacity}")
            }
        }
    }

    /// Parses one [`encode`](ChurnEvent::encode)d line. Unknown keywords,
    /// wrong arities, and malformed integers are diagnostics, never panics
    /// — a trace file from a newer schema degrades into a readable error.
    pub fn decode(line: &str) -> Result<ChurnEvent, String> {
        let mut it = line.split_ascii_whitespace();
        let kw = it.next().ok_or_else(|| "empty event line".to_string())?;
        let args: Vec<&str> = it.collect();
        let arity = |n: usize| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "'{kw}' event: expected {n} operand(s), got {}",
                    args.len()
                ))
            }
        };
        let int = |raw: &str| -> Result<u32, String> {
            raw.parse()
                .map_err(|_| format!("'{kw}' event: '{raw}' is not a u32"))
        };
        match kw {
            "ins" | "del" | "flip" => {
                arity(2)?;
                let (u, v) = (NodeId(int(args[0])?), NodeId(int(args[1])?));
                Ok(match kw {
                    "ins" => ChurnEvent::EdgeInsert { u, v },
                    "del" => ChurnEvent::EdgeDelete { u, v },
                    _ => ChurnEvent::EdgeFlip { u, v },
                })
            }
            "arrive" => {
                arity(1)?;
                Ok(ChurnEvent::TokenArrive(NodeId(int(args[0])?)))
            }
            "drop" => {
                arity(1)?;
                Ok(ChurnEvent::TokenDrop(NodeId(int(args[0])?)))
            }
            "join" => {
                arity(1)?;
                let servers = if args[0] == "-" {
                    Vec::new()
                } else {
                    args[0].split(',').map(int).collect::<Result<_, _>>()?
                };
                Ok(ChurnEvent::CustomerJoin { servers })
            }
            "leave" => {
                arity(1)?;
                Ok(ChurnEvent::CustomerLeave(int(args[0])?))
            }
            "cap" => {
                arity(2)?;
                Ok(ChurnEvent::ServerCapacity {
                    server: int(args[0])?,
                    capacity: int(args[1])?,
                })
            }
            other => Err(format!("unknown event keyword '{other}'")),
        }
    }
}

/// A pass-through event sink: hand every applied [`ChurnEvent`] to
/// [`record`](TraceRecorder::record) and the recorder accumulates the
/// stream for serialization (the `td trace record` capture hook). Engines
/// stay unaware of recording — the caller tees events on the way in.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<ChurnEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event to the recorded stream.
    pub fn record(&mut self, ev: &ChurnEvent) {
        self.events.push(ev.clone());
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded stream, in arrival order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the recorded stream.
    pub fn into_events(self) -> Vec<ChurnEvent> {
        self.events
    }
}

/// Deterministic round-robin symmetry breaking for repair protocols: in
/// `cycle`, node `id` takes the *active* role iff bit `(cycle / 2) mod
/// bits` of its identifier equals the cycle's polarity `cycle mod 2`.
///
/// Any two distinct identifiers below `2^bits` differ in one of the
/// examined bits, so within every window of `2 * bits` cycles they take
/// opposite roles (in both polarities) at least once — the derandomized
/// replacement for the coin-flip role split of the \[CHSW12\]-style
/// baseline. `bits` should be `ceil(log2 n)` (see [`id_bits`]); smaller
/// windows mean shorter worst-case stalls between repairs.
#[inline]
pub fn split_role(id: u32, cycle: u32, bits: u32) -> bool {
    let bit = (id >> ((cycle / 2) % bits.max(1))) & 1;
    bit == (cycle % 2)
}

/// The number of identifier bits [`split_role`] must examine for a network
/// of `n` nodes: `max(1, ceil(log2 n))`.
#[inline]
pub fn id_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// An event a churn engine cannot apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The event variant does not apply to this problem family.
    Unsupported(&'static str),
    /// The event refers to a node/customer/server that does not exist.
    NoSuchEntity(String),
    /// The event is invalid in the current state (e.g. token already
    /// present, edge already exists).
    InvalidEvent(String),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Unsupported(family) => {
                write!(f, "event not supported by the {family} engine")
            }
            ChurnError::NoSuchEntity(what) => write!(f, "no such entity: {what}"),
            ChurnError::InvalidEvent(why) => write!(f, "invalid event: {why}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Whether a repair restarts the protocol from the dirtied nodes only, or
/// wakes every node (the full-recompute fallback used by the differential
/// tests — same states, same dynamics, every node stepped at least once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// Wake only the nodes dirtied by the event (default).
    Incremental,
    /// Wake every node: the full-recompute fallback path.
    FullRecompute,
}

/// Cost of one repair run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Rounds until quiescence.
    pub rounds: u32,
    /// Messages sent.
    pub messages: u64,
    /// Total node steps executed (the work measure that separates
    /// incremental repair from the full-recompute fallback: rounds and
    /// messages of the two are identical by determinism, but the fallback
    /// steps every node at least once).
    pub node_steps: u64,
    /// False if the round cap was hit before quiescence.
    pub completed: bool,
}

impl RepairStats {
    /// Accumulates another run's cost into `self`.
    pub fn absorb(&mut self, other: RepairStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.node_steps += other.node_steps;
        self.completed &= other.completed;
    }

    /// A zero accumulator that starts `completed`.
    pub fn accumulator() -> RepairStats {
        RepairStats {
            completed: true,
            ..RepairStats::default()
        }
    }
}

/// A live instance under churn that repairs itself after every event: the
/// one interface the orientation, assignment and balancing engines share,
/// and the only one the drivers (serve, trace replay, fuzz, `td perf`,
/// `td churn`, the balancer comparison) program against.
pub trait RepairEngine: Send {
    /// Runs the current state to quiescence: the first stable state after
    /// construction, and the repair step after every event.
    fn stabilize(&mut self) -> RepairStats;

    /// Applies one event and repairs. Returns the repair cost.
    fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError>;

    /// Checks the maintained solution with the family's verifier.
    fn verify(&self) -> Result<(), String>;

    /// Lifetime executor work counters over every repair run so far.
    fn exec_perf(&self) -> ExecPerf;

    /// The maintained solution as words, the input of every solution
    /// fingerprint: orientation heads in canonical edge order, `server + 1`
    /// per customer id (0 = unassigned or departed), or the node loads.
    fn solution_words(&self) -> Vec<u64>;

    /// Heaviest node or server load.
    fn max_load(&self) -> u32;

    /// Nodes of the repair network (customers and servers both count).
    fn num_nodes(&self) -> usize;

    /// Nodes the serve plane reports as live: every network node, or only
    /// the alive customers of an assignment.
    fn live_nodes(&self) -> usize {
        self.num_nodes()
    }

    /// Edges of the current instance.
    fn num_edges(&self) -> usize;

    /// Cost of solving the current instance from scratch: a fresh
    /// full-recompute engine over it, started from the family's initial
    /// solution and run to quiescence. Leaves `self` untouched.
    fn recompute(&self) -> RepairStats;
}

/// FNV-1a over a word stream: the fingerprint of a
/// [`RepairEngine::solution_words`] vector (and of any other word stream a
/// report pins), so fingerprints printed by different drivers of one trace
/// are directly diffable.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in words {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Repair cost of one [`drive`]n trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// The initial stabilization.
    pub stabilize: RepairStats,
    /// Accumulated over the events.
    pub events: RepairStats,
    /// Events applied.
    pub applied: u32,
}

impl TraceStats {
    /// Stabilization plus events.
    pub fn total(&self) -> RepairStats {
        let mut t = self.stabilize;
        t.absorb(self.events);
        t
    }
}

/// Stabilizes `engine` and verifies the first stable state.
pub fn stabilize_verified<E: RepairEngine + ?Sized>(engine: &mut E) -> Result<RepairStats, String> {
    let stats = engine.stabilize();
    engine
        .verify()
        .map_err(|e| format!("initial stabilization: {e}"))?;
    Ok(stats)
}

/// The engine loop every driver shares: stabilize and verify, then apply
/// each event `next` yields and verify again. `next` sees the engine, so
/// an adversarial source can read the repaired solution; `after` runs
/// after every verified event.
pub fn drive<E, T>(
    engine: &mut E,
    mut next: impl FnMut(&E) -> Option<T>,
    mut after: impl FnMut(&E),
) -> Result<TraceStats, String>
where
    E: RepairEngine + ?Sized,
    T: std::borrow::Borrow<ChurnEvent>,
{
    let stabilize = stabilize_verified(engine)?;
    let mut events = RepairStats::accumulator();
    let mut applied = 0u32;
    while let Some(ev) = next(engine) {
        let ev = ev.borrow();
        let stats = engine
            .apply(ev)
            .map_err(|e| format!("event {applied} {ev:?}: {e}"))?;
        events.absorb(stats);
        engine
            .verify()
            .map_err(|e| format!("after event {applied}: {e}"))?;
        applied += 1;
        after(engine);
    }
    Ok(TraceStats {
        stabilize,
        events,
        applied,
    })
}

/// [`drive`] over a recorded event list.
pub fn drive_trace<E: RepairEngine + ?Sized>(
    engine: &mut E,
    trace: &[ChurnEvent],
) -> Result<TraceStats, String> {
    let mut events = trace.iter();
    drive(engine, |_| events.next(), |_| {})
}

/// The wake side-channel: per-node "scheduled for next round" flags plus a
/// duplicate-free queue of newly woken nodes. Marking is thread-safe and
/// O(1); draining touches only the woken nodes, never all `n`.
pub struct WakeSet {
    flags: Vec<AtomicBool>,
    queue: Mutex<Vec<u32>>,
}

impl WakeSet {
    /// A wake set over `n` nodes, all asleep.
    pub fn new(n: usize) -> Self {
        WakeSet {
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            queue: Mutex::new(Vec::new()),
        }
    }

    /// Schedules `v` for the next stepping round. Idempotent within a
    /// round; only the first mark enqueues.
    #[inline]
    pub fn mark(&self, v: NodeId) {
        if !self.flags[v.idx()].swap(true, Ordering::Relaxed) {
            self.queue.lock().push(v.0);
        }
    }

    /// True if no node is scheduled.
    fn is_idle(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Drains the queue into a sorted, duplicate-free awake list and clears
    /// the drained flags (so later marks re-enqueue).
    pub(crate) fn drain_sorted(&self) -> Vec<u32> {
        let mut q = std::mem::take(&mut *self.queue.lock());
        q.sort_unstable();
        for &v in &q {
            self.flags[v as usize].store(false, Ordering::Relaxed);
        }
        q
    }
}

/// The nodes one run stepped, deduplicated (see [`ChurnSim::stepped`]).
/// Both buffers are reused across runs.
#[derive(Default)]
struct StepLog {
    nodes: Vec<u32>,
    seen: Vec<bool>,
}

impl StepLog {
    fn new(n: usize) -> Self {
        StepLog {
            nodes: Vec::new(),
            seen: vec![false; n],
        }
    }

    /// Opens a run: forgets the previous run's list.
    fn begin(&mut self) {
        self.nodes.clear();
    }

    /// Records one round's awake list.
    fn note(&mut self, awake: &[u32]) {
        for &v in awake {
            if !self.seen[v as usize] {
                self.seen[v as usize] = true;
                self.nodes.push(v);
            }
        }
    }

    /// Closes a run: clears the marks and sorts the list.
    fn finish(&mut self) {
        for &v in &self.nodes {
            self.seen[v as usize] = false;
        }
        self.nodes.sort_unstable();
    }
}

/// A persistent, wake-based simulator for churn engines.
///
/// Unlike [`crate::Simulator`], the `ChurnSim` *owns* its graph, node
/// states, and message arena, and survives across repair runs: `Halt` means
/// "quiesce until a message arrives", and the round counter is monotonic so
/// the arena's stamps keep invalidating stale slots for free. Between runs
/// the host may patch the topology ([`ChurnSim::insert_edge`],
/// [`ChurnSim::remove_edge`], [`ChurnSim::push_node`],
/// [`ChurnSim::swap_remove_node`]) and re-initialize nodes
/// ([`ChurnSim::reinit`]); the sim stays alive across both.
///
/// ```
/// use td_local::{ChurnSim, Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};
/// use td_graph::{gen::classic::path, NodeId};
///
/// /// Flood the maximum value; quiesce as soon as nothing improves.
/// struct Max {
///     best: u64,
///     dirty: bool,
/// }
/// impl Protocol for Max {
///     type Input = u64;
///     type Message = u64;
///     type Output = u64;
///     fn init(n: NodeInit<'_, u64>) -> Self {
///         Max { best: *n.input, dirty: false }
///     }
///     fn round(
///         &mut self,
///         _: &RoundCtx,
///         inbox: &Inbox<'_, u64>,
///         outbox: &mut Outbox<'_, '_, u64>,
///     ) -> Status {
///         for (_, &m) in inbox.iter() {
///             if m > self.best {
///                 self.best = m;
///                 self.dirty = true;
///             }
///         }
///         if self.dirty {
///             self.dirty = false;
///             outbox.broadcast(self.best);
///         }
///         Status::Halt // quiesce; a later message wakes this node
///     }
///     fn finish(self) -> u64 {
///         self.best
///     }
/// }
///
/// let mut sim: ChurnSim<Max> = ChurnSim::new(path(5), &[7, 0, 0, 0, 0]);
/// sim.state_mut(NodeId(0)).dirty = true; // the host applies an update…
/// sim.wake(NodeId(0)); //                   …and wakes the dirtied node
/// let stats = sim.run(1, 1_000);
/// assert!(stats.completed);
/// assert!(sim.states().iter().all(|s| s.best == 7));
/// // Only the flood's wavefront was stepped — no dense n x rounds scan.
/// assert!(stats.node_steps < (5 * stats.rounds) as u64);
/// ```
pub struct ChurnSim<P: Protocol> {
    graph: CsrGraph,
    states: Vec<P>,
    arena: MessageArena<P::Message>,
    wake: WakeSet,
    round: u32,
    /// When `round + max_rounds` would reach this value, the stamps are
    /// renormalized before the run (see [`ChurnSim::set_stamp_horizon`]).
    /// Defaults to `u32::MAX - 1`, the arena's reserved-stamp boundary.
    stamp_horizon: u32,
    /// The protocol's behavioral period in `ctx.round` (see
    /// [`ChurnSim::set_round_period`]); renormalization rebases the round
    /// counter by a multiple of `lcm(2, round_period)`.
    round_period: u32,
    /// Lazily built sharded message plane (see [`ChurnSim::run_sharded`]);
    /// dropped by topology patches and rebuilt on next use.
    sharded: Option<ShardState<P::Message>>,
    /// Which message plane holds undelivered messages after a round-capped
    /// run: `None` = quiescent, `Some(0)` = the flat arena, `Some(k)` = the
    /// `k`-sharded plane. Switching planes mid-flight would lose them, so
    /// the runners assert against it.
    in_flight: Option<usize>,
    /// Lifetime work counters across every repair run (see
    /// [`ChurnSim::exec_perf`]).
    perf: ExecPerf,
    /// The nodes the last run stepped (see [`ChurnSim::stepped`]).
    log: StepLog,
}

/// The sharded message plane of a [`ChurnSim`], cached across repair runs
/// while the topology stays put; a patch drops it, because the partition
/// and the slot tables follow the graph.
struct ShardState<M> {
    part: Partition,
    plane: ShardPlane<M>,
    queues: BatchQueues<M>,
    traffic: WakeSet,
}

impl<P: Protocol> ChurnSim<P> {
    /// Boots one node per graph node from `inputs`, all asleep.
    pub fn new(graph: CsrGraph, inputs: &[P::Input]) -> Self {
        assert_eq!(
            inputs.len(),
            graph.num_nodes(),
            "one input per node required"
        );
        let states: Vec<P> = graph
            .nodes()
            .map(|v| {
                P::init(NodeInit {
                    id: v,
                    neighbor_ids: graph.neighbors(v),
                    input: &inputs[v.idx()],
                })
            })
            .collect();
        let arena = MessageArena::for_graph(&graph);
        let n = graph.num_nodes();
        ChurnSim {
            graph,
            states,
            arena,
            wake: WakeSet::new(n),
            round: 0,
            stamp_horizon: u32::MAX - 1,
            round_period: 1,
            sharded: None,
            in_flight: None,
            perf: ExecPerf::default(),
            log: StepLog::new(n),
        }
    }

    /// The underlying network.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Read access to all node states (for snapshotting solutions).
    pub fn states(&self) -> &[P] {
        &self.states
    }

    /// Mutable access to one node's state (for host-side event application).
    pub fn state_mut(&mut self, v: NodeId) -> &mut P {
        &mut self.states[v.idx()]
    }

    /// Schedules `v` to be stepped in the next repair run.
    pub fn wake(&mut self, v: NodeId) {
        self.wake.mark(v);
    }

    /// Schedules every node (the full-recompute fallback).
    pub fn wake_all(&mut self) {
        for v in self.graph.nodes() {
            self.wake.mark(v);
        }
    }

    /// The nodes the last run stepped, ascending and without duplicates:
    /// the only nodes whose state that run may have changed.
    pub fn stepped(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.log.nodes.iter().map(|&v| NodeId(v))
    }

    /// Re-runs [`Protocol::init`] for node `v` against the current graph,
    /// replacing its state (for host-side edits that change a node's ports,
    /// such as a topology patch).
    pub fn reinit(&mut self, v: NodeId, input: &P::Input) {
        self.states[v.idx()] = P::init(NodeInit {
            id: v,
            neighbor_ids: self.graph.neighbors(v),
            input,
        });
    }

    /// Inserts the edge `{u, v}` in place (see
    /// [`CsrGraph::insert_edge`]: O(Δ), ports of `u` and `v` above the new
    /// one shift up) and grows the message arena to match. Returns the new
    /// edge's id. The states of `u` and `v` still describe their old ports;
    /// the host must [`reinit`](ChurnSim::reinit) them (and any node whose
    /// input the edit changed) before the next run.
    ///
    /// # Panics
    /// Unless the sim is quiescent: no pending wakes, no capped run with
    /// messages in flight.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, BuildError> {
        self.assert_quiescent();
        let e = self.graph.insert_edge(u, v)?;
        self.arena.grow(self.graph.num_slots());
        self.after_patch();
        Ok(e)
    }

    /// Removes the edge `{u, v}` in place and returns the id it had (see
    /// [`CsrGraph::remove_edge`]: the last edge id moves into the hole,
    /// ports of `u` and `v` above it shift down), or `None` if there is no
    /// such edge. The same host duties and quiescence rule as
    /// [`ChurnSim::insert_edge`] apply.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.assert_quiescent();
        let e = self.graph.remove_edge(u, v)?;
        self.after_patch();
        Some(e)
    }

    /// Appends node `n` with an edge to each of `neighbors`, booted from
    /// `input` against those ports (sorted by neighbor id), and returns
    /// its id. Its row is sized to fit (see [`CsrGraph::push_node`]). The
    /// neighbors' new ports sort last in their rows, since `n` is the
    /// largest id; the host re-initializes or patches any neighbor whose
    /// state the edit changes. The same quiescence rule as
    /// [`ChurnSim::insert_edge`] applies.
    ///
    /// # Panics
    /// If a neighbor is out of range or repeated, or the sim is not
    /// quiescent.
    pub fn push_node(&mut self, neighbors: &[NodeId], input: &P::Input) -> NodeId {
        self.assert_quiescent();
        let v = self.graph.push_node(neighbors.len());
        for &u in neighbors {
            self.graph
                .insert_edge(v, u)
                .unwrap_or_else(|e| panic!("push_node: {e}"));
        }
        self.arena.grow(self.graph.num_slots());
        self.states.push(P::init(NodeInit {
            id: v,
            neighbor_ids: self.graph.neighbors(v),
            input,
        }));
        self.wake.flags.push(AtomicBool::new(false));
        self.log.seen.push(false);
        self.after_patch();
        v
    }

    /// Removes node `v` with its edges; if `v` was not the last node, the
    /// last node moves into id `v` with its edges and its state (see
    /// [`CsrGraph::swap_remove_node`]: its ports are unchanged). Returns
    /// the id the moved node had, if one moved. A protocol whose states
    /// store their own id or their neighbors' ids needs the host to patch
    /// them; the same quiescence rule as [`ChurnSim::insert_edge`] applies.
    pub fn swap_remove_node(&mut self, v: NodeId) -> Option<NodeId> {
        self.assert_quiescent();
        let moved = self.graph.swap_remove_node(v);
        self.arena.grow(self.graph.num_slots());
        self.states.swap_remove(v.idx());
        self.wake.flags.pop();
        self.log.seen.pop();
        self.after_patch();
        moved
    }

    fn assert_quiescent(&self) {
        assert!(
            self.in_flight.is_none() && self.wake.is_idle(),
            "topology patches need a quiescent sim"
        );
    }

    /// Drops the sharded plane (rebuilt lazily for the new topology) and
    /// advances the round counter to the next multiple of `lcm(2,
    /// round_period)` above it: the phase a freshly built sim has at round
    /// 0, so a patched sim behaves exactly like one rebuilt from scratch.
    /// Every arena stamp is stale at quiescence, so moved slots carry no
    /// message.
    fn after_patch(&mut self) {
        self.sharded = None;
        let modulus = self.round_modulus();
        self.ensure_stamp_headroom(modulus);
        self.round = (self.round / modulus + 1) * modulus;
    }

    /// `lcm(2, round_period)`: the step the round counter may be rebased
    /// or advanced by without the protocol or the arena parity noticing.
    fn round_modulus(&self) -> u32 {
        if self.round_period.is_multiple_of(2) {
            self.round_period
        } else {
            self.round_period * 2
        }
    }

    /// The monotonic round counter (diagnostics; persists across repairs —
    /// and is *rebased* toward zero when it approaches the stamp horizon,
    /// see [`ChurnSim::set_stamp_horizon`]).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Lowers the stamp-renormalization horizon (default: `u32::MAX - 1`,
    /// the arena's reserved-stamp boundary).
    ///
    /// The round counter is monotonic across repairs so the arena's stale
    /// stamps stay invalid for free — but a *long-running* instance (the
    /// `td serve` daemon) would eventually drive it into the reserved
    /// `u32::MAX` stamp. Instead of asserting, the runners now renormalize
    /// when `round + max_rounds` would reach the horizon: in-flight
    /// messages are re-stamped relative to a rebased round counter and
    /// every stale slot is scrubbed, after which behavior is bit-identical
    /// to a sim whose counter never wrapped. Tests lower the horizon to
    /// cross it in milliseconds instead of centuries.
    pub fn set_stamp_horizon(&mut self, horizon: u32) {
        assert!(horizon >= 4, "horizon must leave room to execute rounds");
        assert!(
            horizon < u32::MAX,
            "stamps reserve u32::MAX; the horizon cannot exceed u32::MAX - 1"
        );
        self.stamp_horizon = horizon;
    }

    /// Declares the protocol's behavioral period in `ctx.round`: the
    /// smallest `p` such that the protocol behaves identically at rounds
    /// `r` and `r + p` (e.g. `phases × role-split period` for the repair
    /// protocols). Renormalization rebases the round counter by a multiple
    /// of `lcm(2, p)` — a multiple of 2 for the arena's buffer parity, a
    /// multiple of `p` so phase-aligned protocols cannot observe the
    /// rebase. Defaults to 1 (round-agnostic protocol).
    pub fn set_round_period(&mut self, period: u32) {
        assert!(period >= 1, "a protocol's round period is at least 1");
        self.round_period = period;
    }

    /// Renormalizes the round counter and every message plane if `round +
    /// max_rounds` could reach the stamp horizon. The rebased counter keeps
    /// the old one's residue mod `lcm(2, round_period)`: parity keeps
    /// in-flight messages (stamped exactly `round` after a capped run) in
    /// the buffer the next epoch reads, the protocol period keeps
    /// phase-aligned protocols oblivious. All other stamps are necessarily
    /// stale and are scrubbed on *every* plane (the cached sharded plane
    /// persists across runs, so a stale stamp left there could collide with
    /// a reused round number later).
    fn ensure_stamp_headroom(&mut self, max_rounds: u32) {
        if (self.round as u64) + (max_rounds as u64) < self.stamp_horizon as u64 {
            return;
        }
        let modulus = self.round_modulus();
        let old = self.round;
        let new = old % modulus;
        self.arena.renormalize(old, new);
        if let Some(st) = self.sharded.as_mut() {
            for arena in st.plane.arenas_mut() {
                arena.renormalize(old, new);
            }
        }
        self.round = new;
        assert!(
            (self.round as u64) + (max_rounds as u64) < self.stamp_horizon as u64,
            "a single run's round budget ({max_rounds}) plus the rebased counter ({new}) \
             exceeds the stamp horizon ({})",
            self.stamp_horizon
        );
    }

    /// Lifetime [`ExecPerf`] work counters, accumulated over every repair
    /// run of this sim (both planes, any thread count).
    ///
    /// The churn plane is wake-scheduled — halted residents are never
    /// visited, let alone scanned — so `halted_scans` is 0 by construction
    /// and `sparse_skips` counts the resident-rounds the wake sets skipped.
    /// On the flat plane every delivery is a direct arena write
    /// (`local_messages`); on the sharded plane cross-shard sends ride the
    /// batched boundary queues (`boundary_messages`).
    pub fn exec_perf(&self) -> ExecPerf {
        self.perf
    }

    /// Folds a finished run's [`RepairStats`] into the lifetime counters.
    /// `boundary` is the portion of `stats.messages` that crossed shard
    /// boundaries (0 on the flat plane).
    fn absorb_run_perf(&mut self, stats: &RepairStats, boundary: u64) {
        self.perf.node_rounds += stats.node_steps;
        self.perf.local_messages += stats.messages - boundary;
        self.perf.boundary_messages += boundary;
        self.perf.sparse_skips +=
            (stats.rounds as u64) * (self.graph.num_nodes() as u64) - stats.node_steps;
    }

    /// Runs until quiescence (no node awake, no message in flight) or until
    /// `max_rounds` additional rounds have executed. `threads <= 1` runs
    /// sequentially; outputs are identical either way.
    pub fn run(&mut self, threads: usize, max_rounds: u32) -> RepairStats {
        self.ensure_stamp_headroom(max_rounds);
        assert!(
            self.in_flight.is_none_or(|k| k == 0),
            "a capped sharded run left messages in flight; resume with run_sharded"
        );
        self.log.begin();
        let stats = if threads <= 1 {
            self.run_sequential(max_rounds)
        } else {
            self.run_parallel(threads, max_rounds)
        };
        self.log.finish();
        self.absorb_run_perf(&stats, 0);
        self.in_flight = (!stats.completed).then_some(0);
        stats
    }

    /// Runs like [`ChurnSim::run`], but on the sharded message plane:
    /// awake nodes are stepped by their shard's owner worker
    /// ([`td_graph::Partition::bfs_grown`] over the instance graph), intra-
    /// shard messages write the shard-local arena, and boundary messages
    /// are batched per (src-shard, dst-shard) and flushed once per round.
    /// Repair traces are bit-identical to [`ChurnSim::run`] at every shard
    /// and thread count.
    ///
    /// `shards == 1` delegates to the flat plane. The sharded plane is
    /// built on first use and cached until the next topology patch; a
    /// round-capped run must be resumed on the same plane with the same
    /// shard count.
    pub fn run_sharded(&mut self, shards: usize, threads: usize, max_rounds: u32) -> RepairStats {
        assert!(shards >= 1 && threads >= 1);
        if shards == 1 {
            return self.run(threads, max_rounds);
        }
        self.ensure_stamp_headroom(max_rounds);
        assert!(
            self.in_flight.is_none_or(|k| k == shards),
            "a capped run left messages in flight on a different message plane"
        );
        if self
            .sharded
            .as_ref()
            .is_none_or(|s| s.part.num_shards() != shards)
        {
            let part = Partition::bfs_grown(&self.graph, shards);
            self.sharded = Some(ShardState {
                plane: ShardPlane::new(&self.graph, &part),
                queues: BatchQueues::new(shards),
                traffic: WakeSet::new(shards),
                part,
            });
        }
        // Move the plane out so stepping can borrow `self` mutably.
        let st = self.sharded.take().expect("just built");
        self.log.begin();
        let (stats, boundary) = if threads <= 1 {
            self.run_sharded_sequential(&st, max_rounds)
        } else {
            self.run_sharded_parallel(&st, threads, max_rounds)
        };
        self.sharded = Some(st);
        self.log.finish();
        self.absorb_run_perf(&stats, boundary);
        self.in_flight = (!stats.completed).then_some(shards);
        stats
    }

    /// Returns the run's stats plus the number of messages that crossed a
    /// shard boundary (for the [`ExecPerf`] local/boundary split).
    fn run_sharded_sequential(
        &mut self,
        st: &ShardState<P::Message>,
        max_rounds: u32,
    ) -> (RepairStats, u64) {
        let mut stats = RepairStats::accumulator();
        let mut boundary: u64 = 0;
        let mut stamps: u64 = 0;
        loop {
            let awake = self.wake.drain_sorted();
            if awake.is_empty() {
                break;
            }
            if stats.rounds >= max_rounds {
                // Leave the pending wakes marked: a later run resumes them.
                for &v in &awake {
                    self.wake.mark(NodeId(v));
                }
                stats.completed = false;
                break;
            }
            let ctx = RoundCtx { round: self.round };
            stats.node_steps += awake.len() as u64;
            self.log.note(&awake);
            for &v in &awake {
                let node = NodeId(v);
                let sh = st.part.shard_of(node) as usize;
                let (reader, writer) = st.plane.arena(sh).epoch(self.round);
                let route = ShardRoute {
                    shard: sh as u32,
                    slot_shard: &st.plane.tables.slot_shard,
                    slot_local: &st.plane.tables.slot_local,
                    queues: &st.queues,
                    traffic: &st.traffic,
                };
                let inbox = Inbox {
                    reader,
                    base: st.plane.node_base(node),
                    degree: self.graph.degree(node),
                };
                let mut outbox = Outbox {
                    writer,
                    graph: &self.graph,
                    node,
                    sent: 0,
                    boundary_sent: 0,
                    wake: Some(&self.wake),
                    route: Some(RouteRef::Batched(&route)),
                };
                stamps += inbox.degree as u64;
                let status = self.states[v as usize].round(&ctx, &inbox, &mut outbox);
                stats.messages += outbox.sent;
                boundary += outbox.boundary_sent;
                if status == Status::Continue {
                    self.wake.mark(node);
                }
            }
            // Deliver phase: flush boundary batches into the receiving
            // shards' arenas (only shards the traffic sink marked).
            for d in st.traffic.drain_sorted() {
                let (_, writer) = st.plane.arena(d as usize).epoch(self.round);
                // SAFETY: single-threaded executor — exclusive access.
                unsafe { st.queues.flush_into(d as usize, &writer) };
            }
            self.round += 1;
            stats.rounds += 1;
        }
        self.perf.stamp_scans += stamps;
        (stats, boundary)
    }

    /// Returns the run's stats plus the number of messages that crossed a
    /// shard boundary (for the [`ExecPerf`] local/boundary split).
    fn run_sharded_parallel(
        &mut self,
        st: &ShardState<P::Message>,
        threads: usize,
        max_rounds: u32,
    ) -> (RepairStats, u64) {
        let threads = threads.min(st.part.num_shards()).max(1);
        let graph = &self.graph;
        let wake = &self.wake;
        // States are stepped through raw pointers: every awake node belongs
        // to exactly one shard, every shard to exactly one worker.
        let states_ptr = SendPtr(self.states.as_mut_ptr());
        let first = self.wake.drain_sorted();
        if max_rounds == 0 {
            let pending = !first.is_empty();
            for &v in &first {
                self.wake.mark(NodeId(v));
            }
            return (
                RepairStats {
                    completed: !pending,
                    ..RepairStats::accumulator()
                },
                0,
            );
        }
        if first.is_empty() {
            return (RepairStats::accumulator(), 0);
        }
        let awake: Mutex<Vec<u32>> = Mutex::new(first);
        let pending: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let barrier = Barrier::new(threads);
        let stop = AtomicBool::new(false);
        let completed = AtomicBool::new(true);
        let messages = AtomicU64::new(0);
        let boundary = AtomicU64::new(0);
        let stamps = AtomicU64::new(0);
        let node_steps = AtomicU64::new(0);
        let rounds_done = AtomicU32::new(0);
        let base_round = self.round;
        // Worker 0 logs each round's awake list between barriers.
        let log = Mutex::new(std::mem::take(&mut self.log));

        crossbeam::thread::scope(|scope| {
            for w in 0..threads {
                let log = &log;
                let awake = &awake;
                let pending = &pending;
                let barrier = &barrier;
                let stop = &stop;
                let completed = &completed;
                let messages = &messages;
                let boundary = &boundary;
                let stamps = &stamps;
                let node_steps = &node_steps;
                let rounds_done = &rounds_done;
                let states_ptr = &states_ptr;
                scope.spawn(move |_| {
                    let mut round = base_round;
                    let mut mine: Vec<u32> = Vec::new();
                    // Worker-local snapshot of the pending-traffic list, so
                    // the deliver phase never holds the shared lock while
                    // flushing.
                    let mut my_pending: Vec<u32> = Vec::new();
                    loop {
                        mine.clear();
                        {
                            let list = awake.lock();
                            mine.extend(
                                list.iter().filter(|&&v| {
                                    st.part.shard_of(NodeId(v)) as usize % threads == w
                                }),
                            );
                        }
                        let ctx = RoundCtx { round };
                        let mut local_msgs: u64 = 0;
                        let mut local_boundary: u64 = 0;
                        let mut local_stamps: u64 = 0;
                        for &v in &mine {
                            let node = NodeId(v);
                            let sh = st.part.shard_of(node) as usize;
                            let (reader, writer) = st.plane.arena(sh).epoch(round);
                            let route = ShardRoute {
                                shard: sh as u32,
                                slot_shard: &st.plane.tables.slot_shard,
                                slot_local: &st.plane.tables.slot_local,
                                queues: &st.queues,
                                traffic: &st.traffic,
                            };
                            let inbox = Inbox {
                                reader,
                                base: st.plane.node_base(node),
                                degree: graph.degree(node),
                            };
                            let mut outbox = Outbox {
                                writer,
                                graph,
                                node,
                                sent: 0,
                                boundary_sent: 0,
                                wake: Some(wake),
                                route: Some(RouteRef::Batched(&route)),
                            };
                            // SAFETY: the shard partition gives each awake
                            // node to exactly one worker, so this &mut does
                            // not alias; barriers separate the rounds.
                            local_stamps += inbox.degree as u64;
                            let state = unsafe { &mut *states_ptr.0.add(v as usize) };
                            let status = state.round(&ctx, &inbox, &mut outbox);
                            local_msgs += outbox.sent;
                            local_boundary += outbox.boundary_sent;
                            if status == Status::Continue {
                                wake.mark(node);
                            }
                        }
                        messages.fetch_add(local_msgs, Ordering::Relaxed);
                        boundary.fetch_add(local_boundary, Ordering::Relaxed);
                        stamps.fetch_add(local_stamps, Ordering::Relaxed);
                        // (a) all sends, wake marks and queue appends done.
                        barrier.wait();
                        if w == 0 {
                            let stepped = {
                                let list = awake.lock();
                                log.lock().note(&list);
                                list.len() as u64
                            };
                            node_steps.fetch_add(stepped, Ordering::Relaxed);
                            let executed = rounds_done.fetch_add(1, Ordering::Relaxed) + 1;
                            *pending.lock() = st.traffic.drain_sorted();
                            let next = wake.drain_sorted();
                            if next.is_empty() {
                                stop.store(true, Ordering::Relaxed);
                            } else if executed >= max_rounds {
                                // Re-mark so a later run resumes the work.
                                for &v in &next {
                                    wake.mark(NodeId(v));
                                }
                                completed.store(false, Ordering::Relaxed);
                                stop.store(true, Ordering::Relaxed);
                            } else {
                                *awake.lock() = next;
                            }
                        }
                        // (b) next awake list / pending list / stop published.
                        barrier.wait();
                        // Deliver phase runs even when stopping: a capped
                        // run's boundary messages must reach the shard
                        // arenas so a later run can resume them. Snapshot
                        // the owned entries first so no worker holds the
                        // shared lock while flushing.
                        my_pending.clear();
                        my_pending.extend(
                            pending
                                .lock()
                                .iter()
                                .copied()
                                .filter(|&d| d as usize % threads == w),
                        );
                        for &d in &my_pending {
                            let d = d as usize;
                            let (_, writer) = st.plane.arena(d).epoch(round);
                            // SAFETY: column `d` belongs to this worker
                            // during the deliver phase.
                            unsafe { st.queues.flush_into(d, &writer) };
                        }
                        // (c) boundary messages published.
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        round += 1;
                    }
                });
            }
        })
        .expect("sharded churn worker panicked");
        self.log = log.into_inner();

        let rounds = rounds_done.load(Ordering::Relaxed);
        self.round += rounds;
        self.perf.stamp_scans += stamps.load(Ordering::Relaxed);
        (
            RepairStats {
                rounds,
                messages: messages.load(Ordering::Relaxed),
                node_steps: node_steps.load(Ordering::Relaxed),
                completed: completed.load(Ordering::Relaxed),
            },
            boundary.load(Ordering::Relaxed),
        )
    }

    fn run_sequential(&mut self, max_rounds: u32) -> RepairStats {
        let mut stats = RepairStats::accumulator();
        let mut stamps: u64 = 0;
        loop {
            let awake = self.wake.drain_sorted();
            if awake.is_empty() {
                break;
            }
            if stats.rounds >= max_rounds {
                // Leave the pending wakes marked: a later run resumes them.
                for &v in &awake {
                    self.wake.mark(NodeId(v));
                }
                stats.completed = false;
                break;
            }
            let (reader, writer) = self.arena.epoch(self.round);
            let ctx = RoundCtx { round: self.round };
            stats.node_steps += awake.len() as u64;
            self.log.note(&awake);
            for &v in &awake {
                let node = NodeId(v);
                let inbox = Inbox {
                    reader,
                    base: self.graph.node_offset(node),
                    degree: self.graph.degree(node),
                };
                let mut outbox = Outbox {
                    writer,
                    graph: &self.graph,
                    node,
                    sent: 0,
                    boundary_sent: 0,
                    wake: Some(&self.wake),
                    route: None,
                };
                stamps += inbox.degree as u64;
                let status = self.states[v as usize].round(&ctx, &inbox, &mut outbox);
                stats.messages += outbox.sent;
                if status == Status::Continue {
                    self.wake.mark(node);
                }
            }
            self.round += 1;
            stats.rounds += 1;
        }
        self.perf.stamp_scans += stamps;
        stats
    }

    fn run_parallel(&mut self, threads: usize, max_rounds: u32) -> RepairStats {
        let n = self.graph.num_nodes();
        let threads = threads.min(n.max(1));
        let graph = &self.graph;
        let arena = &self.arena;
        let wake = &self.wake;
        // States are stepped through raw pointers: each awake node is owned
        // by exactly one worker (strided partition of the awake list), so
        // the accesses are disjoint. The awake list itself is rebuilt by
        // worker 0 between barriers.
        let states_ptr = SendPtr(self.states.as_mut_ptr());
        let first = self.wake.drain_sorted();
        if max_rounds == 0 {
            // Match the sequential executor's cap-before-stepping check:
            // a zero budget executes nothing and leaves the work pending.
            let pending = !first.is_empty();
            for &v in &first {
                self.wake.mark(NodeId(v));
            }
            return RepairStats {
                completed: !pending,
                ..RepairStats::accumulator()
            };
        }
        let awake: Mutex<Vec<u32>> = Mutex::new(first);
        let barrier = Barrier::new(threads);
        let stop = AtomicBool::new(false);
        let completed = AtomicBool::new(true);
        let messages = AtomicU64::new(0);
        let stamps = AtomicU64::new(0);
        let node_steps = AtomicU64::new(0);
        let rounds_done = AtomicU32::new(0);
        let base_round = self.round;

        if awake.lock().is_empty() {
            return RepairStats::accumulator();
        }
        // Worker 0 logs each round's awake list between barriers.
        let log = Mutex::new(std::mem::take(&mut self.log));

        crossbeam::thread::scope(|scope| {
            for w in 0..threads {
                let log = &log;
                let awake = &awake;
                let barrier = &barrier;
                let stop = &stop;
                let completed = &completed;
                let messages = &messages;
                let stamps = &stamps;
                let node_steps = &node_steps;
                let rounds_done = &rounds_done;
                let states_ptr = &states_ptr;
                scope.spawn(move |_| {
                    let mut round = base_round;
                    let mut mine: Vec<u32> = Vec::new();
                    loop {
                        mine.clear();
                        {
                            let list = awake.lock();
                            mine.extend(list.iter().skip(w).step_by(threads));
                        }
                        let (reader, writer) = arena.epoch(round);
                        let ctx = RoundCtx { round };
                        let mut local_msgs: u64 = 0;
                        let mut local_stamps: u64 = 0;
                        for &v in &mine {
                            let node = NodeId(v);
                            let inbox = Inbox {
                                reader,
                                base: graph.node_offset(node),
                                degree: graph.degree(node),
                            };
                            let mut outbox = Outbox {
                                writer,
                                graph,
                                node,
                                sent: 0,
                                boundary_sent: 0,
                                wake: Some(wake),
                                route: None,
                            };
                            // SAFETY: the strided partition gives each awake
                            // node to exactly one worker, so this &mut does
                            // not alias; barriers separate the rounds.
                            local_stamps += inbox.degree as u64;
                            let state = unsafe { &mut *states_ptr.0.add(v as usize) };
                            let status = state.round(&ctx, &inbox, &mut outbox);
                            local_msgs += outbox.sent;
                            if status == Status::Continue {
                                wake.mark(node);
                            }
                        }
                        messages.fetch_add(local_msgs, Ordering::Relaxed);
                        stamps.fetch_add(local_stamps, Ordering::Relaxed);
                        // (a) all sends and wake marks for this round done.
                        barrier.wait();
                        if w == 0 {
                            let stepped = {
                                let list = awake.lock();
                                log.lock().note(&list);
                                list.len() as u64
                            };
                            node_steps.fetch_add(stepped, Ordering::Relaxed);
                            let executed = rounds_done.fetch_add(1, Ordering::Relaxed) + 1;
                            let next = wake.drain_sorted();
                            if next.is_empty() {
                                stop.store(true, Ordering::Relaxed);
                            } else if executed >= max_rounds {
                                // Re-mark so a later run resumes the work.
                                for &v in &next {
                                    wake.mark(NodeId(v));
                                }
                                completed.store(false, Ordering::Relaxed);
                                stop.store(true, Ordering::Relaxed);
                            } else {
                                *awake.lock() = next;
                            }
                        }
                        // (b) next awake list / stop decision published.
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        round += 1;
                    }
                });
            }
        })
        .expect("churn worker panicked");
        self.log = log.into_inner();

        let rounds = rounds_done.load(Ordering::Relaxed);
        self.round += rounds;
        self.perf.stamp_scans += stamps.load(Ordering::Relaxed);
        RepairStats {
            rounds,
            messages: messages.load(Ordering::Relaxed),
            node_steps: node_steps.load(Ordering::Relaxed),
            completed: completed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Inbox, NodeInit, Outbox, RoundCtx};
    use td_graph::gen::classic::{cycle, path};
    use td_graph::Port;

    #[test]
    fn churn_events_encode_decode_roundtrip() {
        let all = [
            ChurnEvent::EdgeInsert {
                u: NodeId(3),
                v: NodeId(9),
            },
            ChurnEvent::EdgeDelete {
                u: NodeId(0),
                v: NodeId(1),
            },
            ChurnEvent::EdgeFlip {
                u: NodeId(7),
                v: NodeId(7),
            },
            ChurnEvent::TokenArrive(NodeId(12)),
            ChurnEvent::TokenDrop(NodeId(0)),
            ChurnEvent::CustomerJoin {
                servers: vec![4, 0, 2],
            },
            ChurnEvent::CustomerJoin { servers: vec![] },
            ChurnEvent::CustomerLeave(99),
            ChurnEvent::ServerCapacity {
                server: 5,
                capacity: 0,
            },
            ChurnEvent::ServerCapacity {
                server: u32::MAX,
                capacity: u32::MAX,
            },
        ];
        for ev in &all {
            let line = ev.encode();
            assert!(!line.contains('\n'), "{line:?}: single line");
            let back = ChurnEvent::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "{line}");
        }
    }

    #[test]
    fn churn_event_decode_rejects_malformed_lines() {
        for bad in [
            "",
            "teleport 3 4",      // unknown keyword (future schema variant)
            "ins 3",             // arity
            "ins 3 4 5",         // arity
            "flip x 4",          // not a u32
            "arrive -1",         // negative
            "join",              // missing list
            "join 1,,2",         // empty list element
            "cap 5",             // arity
            "leave 99999999999", // u32 overflow
        ] {
            let err = ChurnEvent::decode(bad);
            assert!(err.is_err(), "{bad:?}: should be rejected, got {err:?}");
        }
        // The diagnostic names the offending keyword.
        let msg = ChurnEvent::decode("teleport 3 4").unwrap_err();
        assert!(msg.contains("teleport"), "{msg}");
    }

    #[test]
    fn trace_recorder_accumulates_in_order() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        let evs = [
            ChurnEvent::EdgeFlip {
                u: NodeId(1),
                v: NodeId(2),
            },
            ChurnEvent::CustomerLeave(3),
        ];
        for ev in &evs {
            rec.record(ev);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events(), &evs[..]);
        assert_eq!(rec.into_events(), evs.to_vec());
    }

    /// Relaxation to a fixpoint: each node holds a value; when woken it
    /// adopts `max(own, received)` and gossips only on change. Quiesces as
    /// soon as the maximum has flooded the awake region.
    struct MaxHold {
        best: u64,
        dirty: bool,
    }

    impl Protocol for MaxHold {
        type Input = u64;
        type Message = u64;
        type Output = u64;

        fn init(node: NodeInit<'_, u64>) -> Self {
            MaxHold {
                best: *node.input,
                // Converged by default: a woken node gossips only after its
                // value actually changes (tests flip this by hand to model
                // a host-applied perturbation).
                dirty: false,
            }
        }

        fn round(
            &mut self,
            _ctx: &RoundCtx,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, '_, u64>,
        ) -> Status {
            for (_, &m) in inbox.iter() {
                if m > self.best {
                    self.best = m;
                    self.dirty = true;
                }
            }
            if self.dirty {
                self.dirty = false;
                outbox.broadcast(self.best);
            }
            Status::Halt
        }

        fn finish(self) -> u64 {
            self.best
        }
    }

    #[test]
    fn quiescent_without_wakes() {
        let g = path(5);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[1, 2, 3, 4, 5]);
        let stats = sim.run(1, 1000);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.node_steps, 0);
        assert!(stats.completed);
    }

    #[test]
    fn wake_floods_only_while_values_improve() {
        let g = path(6);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[9, 0, 0, 0, 0, 0]);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let stats = sim.run(1, 1000);
        assert!(stats.completed);
        // The 9 floods down the path: rounds = path length + settle.
        assert!(stats.rounds >= 5, "rounds = {}", stats.rounds);
        for v in 0..6 {
            assert_eq!(sim.states()[v].best, 9);
        }
    }

    #[test]
    fn sleeping_region_pays_zero_steps() {
        // Wake one endpoint whose value is NOT the max: the flood dies as
        // soon as no node improves; far nodes are never stepped.
        let g = path(40);
        let mut inputs = vec![5u64; 40];
        inputs[0] = 3; // woken node is dominated immediately
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let stats = sim.run(1, 1000);
        assert!(stats.completed);
        // Node 0 gossips its 3; node 1 ignores the dominated value and goes
        // back to sleep. The other 38 nodes are never stepped.
        assert_eq!(stats.node_steps, 2);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn round_counter_persists_and_messages_stay_valid() {
        let g = cycle(8);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[0; 8]);
        sim.wake(NodeId(3));
        let a = sim.run(1, 1000);
        assert!(a.completed);
        let r0 = sim.round();
        // Second repair: bump node 5's value by hand, wake it.
        sim.state_mut(NodeId(5)).best = 42;
        sim.state_mut(NodeId(5)).dirty = true;
        sim.wake(NodeId(5));
        let b = sim.run(1, 1000);
        assert!(b.completed);
        assert!(sim.round() > r0);
        for v in 0..8 {
            assert_eq!(sim.states()[v].best, 42, "node {v}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for threads in [2usize, 4, 8] {
            let g = cycle(17);
            let mut inputs = vec![0u64; 17];
            inputs[11] = 7;
            let mut seq: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
            seq.state_mut(NodeId(11)).dirty = true;
            seq.wake(NodeId(11));
            let a = seq.run(1, 10_000);
            let mut par: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
            par.state_mut(NodeId(11)).dirty = true;
            par.wake(NodeId(11));
            let b = par.run(threads, 10_000);
            assert_eq!(a, b, "threads = {threads}");
            for v in 0..17 {
                assert_eq!(seq.states()[v].best, par.states()[v].best);
            }
        }
    }

    #[test]
    fn zero_round_cap_is_executor_independent() {
        for threads in [1usize, 4] {
            let g = path(6);
            let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[1, 0, 0, 0, 0, 0]);
            sim.state_mut(NodeId(0)).dirty = true;
            sim.wake(NodeId(0));
            let capped = sim.run(threads, 0);
            assert_eq!(capped.rounds, 0, "threads = {threads}");
            assert!(!capped.completed, "threads = {threads}");
            // The pending wake survives for the next run.
            let rest = sim.run(threads, 1000);
            assert!(rest.completed);
            assert!(rest.node_steps > 0);
        }
    }

    #[test]
    fn round_cap_leaves_work_resumable() {
        let g = path(30);
        let mut inputs = vec![0u64; 30];
        inputs[0] = 9;
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let a = sim.run(1, 3);
        assert!(!a.completed);
        assert_eq!(a.rounds, 3);
        let b = sim.run(1, 10_000);
        assert!(b.completed);
        assert_eq!(sim.states()[29].best, 9);
    }

    /// A protocol that echoes received payloads back once, port-addressed —
    /// exercises wake-on-message with specific ports.
    struct EchoOnce;

    impl Protocol for EchoOnce {
        type Input = ();
        type Message = u32;
        type Output = ();

        fn init(_: NodeInit<'_, ()>) -> Self {
            EchoOnce
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            if ctx.round == 0 {
                outbox.send(Port::from(0usize), 1);
            } else {
                for (p, &m) in inbox.iter() {
                    if m < 3 {
                        outbox.send(p, m + 1);
                    }
                }
            }
            Status::Halt
        }

        fn finish(self) {}
    }

    #[test]
    fn message_wakes_sleeping_receiver() {
        let g = path(2);
        let mut sim: ChurnSim<EchoOnce> = ChurnSim::new(g, &[(), ()]);
        sim.wake(NodeId(0));
        let stats = sim.run(1, 100);
        assert!(stats.completed);
        // 0 sends 1; 1 wakes, replies 2; 0 wakes, replies 3; 1 wakes, stops.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.node_steps, 4);
    }

    #[test]
    fn sharded_repairs_match_flat_at_every_grid_point() {
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 4] {
                let g = cycle(17);
                let mut inputs = vec![0u64; 17];
                inputs[11] = 7;
                let mut flat: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
                flat.state_mut(NodeId(11)).dirty = true;
                flat.wake(NodeId(11));
                let a = flat.run(1, 10_000);
                let mut sh: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
                sh.state_mut(NodeId(11)).dirty = true;
                sh.wake(NodeId(11));
                let b = sh.run_sharded(shards, threads, 10_000);
                assert_eq!(a, b, "shards {shards}, threads {threads}");
                for v in 0..17 {
                    assert_eq!(flat.states()[v].best, sh.states()[v].best);
                }
            }
        }
    }

    /// Flood the maximum, but forward only in rounds `≡ 0 (mod 3)`: a
    /// phase-aligned protocol, so a patch that left the round counter out
    /// of phase would change its rounds.
    struct Relay {
        best: u64,
        pending: bool,
    }

    impl Protocol for Relay {
        type Input = u64;
        type Message = u64;
        type Output = u64;

        fn init(node: NodeInit<'_, u64>) -> Self {
            Relay {
                best: *node.input,
                pending: false,
            }
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, '_, u64>,
        ) -> Status {
            for (_, &m) in inbox.iter() {
                if m > self.best {
                    self.best = m;
                    self.pending = true;
                }
            }
            if !self.pending {
                return Status::Halt;
            }
            if !ctx.round.is_multiple_of(3) {
                return Status::Continue;
            }
            self.pending = false;
            outbox.broadcast(self.best);
            Status::Halt
        }

        fn finish(self) -> u64 {
            self.best
        }
    }

    fn run_on(sim: &mut ChurnSim<Relay>, threads: usize, shards: usize) -> RepairStats {
        sim.run_sharded(shards, threads, 10_000)
    }

    /// Raises node `v` to `value` and runs the flood.
    fn raise(sim: &mut ChurnSim<Relay>, v: u32, value: u64, grid: (usize, usize)) -> RepairStats {
        let s = sim.state_mut(NodeId(v));
        s.best = value;
        s.pending = true;
        sim.wake(NodeId(v));
        run_on(sim, grid.0, grid.1)
    }

    #[test]
    fn patched_sim_behaves_like_one_built_over_the_patched_graph() {
        for grid in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let mut sim: ChurnSim<Relay> = ChurnSim::new(path(12), &[0; 12]);
            sim.set_round_period(3);
            raise(&mut sim, 0, 5, grid);
            assert_ne!(
                sim.round() % 6,
                0,
                "the flood left the counter out of phase"
            );
            let slots = sim.graph().num_slots();
            let e = sim.insert_edge(NodeId(9), NodeId(3)).unwrap();
            assert_eq!(e.0, 11);
            assert_eq!(sim.round() % 6, 0, "a patch realigns to lcm(2, period)");
            assert!(
                sim.graph().num_slots() > slots,
                "full rows moved to the tail"
            );
            assert_eq!(sim.remove_edge(NodeId(5), NodeId(6)), Some(EdgeId(5)));
            assert_eq!(sim.remove_edge(NodeId(5), NodeId(6)), None);
            let bests: Vec<u64> = sim.states().iter().map(|s| s.best).collect();
            for v in [3, 9, 5, 6] {
                sim.reinit(NodeId(v), &bests[v as usize]);
            }
            let patched = raise(&mut sim, 11, 8, grid);
            let patched_steps: Vec<NodeId> = sim.stepped().collect();

            let edges: Vec<(u32, u32)> = sim
                .graph()
                .edge_list()
                .map(|(_, a, b)| (a.0, b.0))
                .collect();
            let mut fresh: ChurnSim<Relay> =
                ChurnSim::new(CsrGraph::from_edges(12, &edges).unwrap(), &bests);
            fresh.set_round_period(3);
            let rebuilt = raise(&mut fresh, 11, 8, grid);
            assert_eq!(patched, rebuilt, "grid {grid:?}");
            assert_eq!(patched_steps, fresh.stepped().collect::<Vec<_>>());
            let outs = |s: &ChurnSim<Relay>| s.states().iter().map(|s| s.best).collect::<Vec<_>>();
            assert_eq!(outs(&sim), outs(&fresh));
            // {9, 3} carried the flood across the cut edge {5, 6}.
            assert!(outs(&sim).iter().all(|&b| b == 8), "{:?}", outs(&sim));
        }
    }

    #[test]
    fn node_patches_behave_like_a_sim_built_over_the_patched_graph() {
        for grid in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let mut sim: ChurnSim<Relay> = ChurnSim::new(path(10), &[0; 10]);
            sim.set_round_period(3);
            raise(&mut sim, 0, 5, grid);
            // Node 10 joins between 2 and 7; node 4 leaves, so node 10
            // moves into id 4 with its edges and its state.
            let v = sim.push_node(&[NodeId(7), NodeId(2)], &6);
            assert_eq!((v, sim.round() % 6), (NodeId(10), 0));
            assert_eq!(sim.graph().neighbors(v), &[2, 7]);
            assert_eq!(sim.swap_remove_node(NodeId(4)), Some(NodeId(10)));
            assert_eq!(sim.round() % 6, 0, "a patch realigns to lcm(2, period)");
            assert_eq!(sim.graph().neighbors(NodeId(4)), &[2, 7]);
            assert_eq!(sim.states()[4].best, 6, "the moved node keeps its state");
            sim.graph().validate().unwrap();
            let bests: Vec<u64> = sim.states().iter().map(|s| s.best).collect();
            let patched = raise(&mut sim, 9, 8, grid);
            let patched_steps: Vec<NodeId> = sim.stepped().collect();

            let edges: Vec<(u32, u32)> = sim
                .graph()
                .edge_list()
                .map(|(_, a, b)| (a.0, b.0))
                .collect();
            let mut fresh: ChurnSim<Relay> =
                ChurnSim::new(CsrGraph::from_edges(10, &edges).unwrap(), &bests);
            fresh.set_round_period(3);
            let rebuilt = raise(&mut fresh, 9, 8, grid);
            assert_eq!(patched, rebuilt, "grid {grid:?}");
            assert_eq!(patched_steps, fresh.stepped().collect::<Vec<_>>());
            let outs = |s: &ChurnSim<Relay>| s.states().iter().map(|s| s.best).collect::<Vec<_>>();
            assert_eq!(outs(&sim), outs(&fresh));
            // The flood crossed the cut at 4 through the moved node's edges.
            assert!(outs(&sim).iter().all(|&b| b == 8), "{:?}", outs(&sim));
            // Removing the last node moves nothing.
            assert_eq!(sim.swap_remove_node(NodeId(9)), None);
            assert_eq!((sim.graph().num_nodes(), sim.states().len()), (9, 9));
        }
    }

    #[test]
    fn stepped_lists_each_stepped_node_once_on_every_path() {
        let mut expect = None;
        for (threads, shards) in [(1, 1), (3, 1), (1, 4), (3, 4)] {
            let mut sim: ChurnSim<Relay> = ChurnSim::new(cycle(20), &[0; 20]);
            sim.set_round_period(3);
            raise(&mut sim, 4, 2, (threads, shards));
            let first: Vec<u32> = sim.stepped().map(|v| v.0).collect();
            // A long flood steps nodes several times; each is listed once.
            assert_eq!(first, (0..20).collect::<Vec<_>>(), "{threads}x{shards}");
            let quiet = run_on(&mut sim, threads, shards);
            assert_eq!((quiet.rounds, sim.stepped().len()), (0, 0));
            sim.wake(NodeId(7));
            sim.wake(NodeId(2));
            run_on(&mut sim, threads, shards);
            let second: Vec<u32> = sim.stepped().map(|v| v.0).collect();
            assert_eq!(*expect.get_or_insert(second.clone()), second);
        }
        assert_eq!(expect, Some(vec![2, 7]), "idle nodes step once and halt");
    }

    #[test]
    #[should_panic(expected = "quiescent")]
    fn patches_need_a_quiescent_sim() {
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(4), &[0; 4]);
        sim.wake(NodeId(1));
        let _ = sim.insert_edge(NodeId(0), NodeId(3));
    }

    #[test]
    fn sharded_round_cap_is_resumable_on_the_same_plane() {
        for threads in [1usize, 3] {
            let g = path(30);
            let mut inputs = vec![0u64; 30];
            inputs[0] = 9;
            let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
            sim.state_mut(NodeId(0)).dirty = true;
            sim.wake(NodeId(0));
            let a = sim.run_sharded(4, threads, 3);
            assert!(!a.completed, "threads {threads}");
            assert_eq!(a.rounds, 3);
            // Resume on the same plane: the capped run's boundary messages
            // were flushed, so the flood completes.
            let b = sim.run_sharded(4, threads, 10_000);
            assert!(b.completed);
            assert_eq!(sim.states()[29].best, 9);
        }
    }

    /// Marking a node twice before it is stepped enqueues it once; draining
    /// resets the flag so a later mark re-enqueues — the invariant behind
    /// "a node woken by its own `Continue` *and* an incoming message in the
    /// same round is stepped exactly once".
    #[test]
    fn wakeset_re_mark_in_same_round_enqueues_once() {
        let ws = WakeSet::new(5);
        ws.mark(NodeId(2));
        ws.mark(NodeId(2));
        ws.mark(NodeId(4));
        ws.mark(NodeId(2));
        assert_eq!(ws.drain_sorted(), vec![2, 4]);
        // Drained flags are cleared: the same node can be woken again.
        ws.mark(NodeId(2));
        assert_eq!(ws.drain_sorted(), vec![2]);
        assert!(ws.drain_sorted().is_empty());
    }

    /// Both neighbors message each other *and* return `Continue` every
    /// round: each node is doubly scheduled (self-continue + incoming
    /// message) yet must be stepped exactly once per round, on the flat and
    /// the sharded plane alike.
    struct ChattyPair;

    impl Protocol for ChattyPair {
        type Input = ();
        type Message = u8;
        type Output = ();

        fn init(_: NodeInit<'_, ()>) -> Self {
            ChattyPair
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            _inbox: &Inbox<'_, u8>,
            outbox: &mut Outbox<'_, '_, u8>,
        ) -> Status {
            if ctx.round < 3 {
                outbox.broadcast(1);
                Status::Continue
            } else {
                Status::Halt
            }
        }

        fn finish(self) {}
    }

    #[test]
    fn double_wake_continue_plus_message_steps_once() {
        for (threads, shards) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2)] {
            let g = path(2);
            let mut sim: ChurnSim<ChattyPair> = ChurnSim::new(g, &[(), ()]);
            sim.wake(NodeId(0));
            sim.wake(NodeId(1));
            let stats = sim.run_sharded(shards, threads, 100);
            assert!(stats.completed);
            // Rounds 0..=2 send + continue, round 3 quiesces: 4 rounds,
            // 2 nodes stepped once each per round despite the double wake.
            assert_eq!(stats.rounds, 4, "threads {threads} shards {shards}");
            assert_eq!(stats.node_steps, 8, "threads {threads} shards {shards}");
            assert_eq!(stats.messages, 6, "threads {threads} shards {shards}");
        }
    }

    /// A boundary message whose receiving shard is *fully* quiesced must
    /// wake that shard: the flood starts in shard 0 and every other shard
    /// of the plane is asleep until its first cross-shard delivery.
    #[test]
    fn boundary_message_wakes_fully_quiesced_shard() {
        for threads in [1usize, 2] {
            let g = path(16);
            let mut inputs = vec![0u64; 16];
            inputs[0] = 9;
            let mut flat: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
            flat.state_mut(NodeId(0)).dirty = true;
            flat.wake(NodeId(0));
            let a = flat.run(1, 10_000);
            let mut sh: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
            sh.state_mut(NodeId(0)).dirty = true;
            sh.wake(NodeId(0));
            // 4 BFS shards over a path = 4 contiguous blocks; shards 1-3
            // start with every resident asleep.
            let b = sh.run_sharded(4, threads, 10_000);
            assert_eq!(a, b, "threads {threads}");
            for v in 0..16 {
                assert_eq!(sh.states()[v].best, 9, "node {v}");
            }
            // The wave touches each node a bounded number of times — far
            // below the dense grid — so quiesced regions stayed cheap.
            assert!(
                b.node_steps < (16 * b.rounds) as u64,
                "threads {threads}: steps {} not sparse",
                b.node_steps
            );
        }
    }

    /// Round-cap resume when the cap lands *inside* a shard: the frontier
    /// shard is partially woken (some residents already stepped, some still
    /// asleep), and repeated 1-round slices must make monotonic progress to
    /// the same final state as an uncapped run.
    #[test]
    fn round_cap_resume_with_partially_woken_shard() {
        let g = path(16);
        let mut inputs = vec![0u64; 16];
        inputs[0] = 9;
        let mut capped: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
        capped.state_mut(NodeId(0)).dirty = true;
        capped.wake(NodeId(0));
        // Cap after 2 rounds: the flood is at node 2 of shard 0 (nodes
        // 0..=3), so shard 0 is partially woken and shards 1-3 untouched.
        let first = capped.run_sharded(4, 1, 2);
        assert!(!first.completed);
        assert_eq!(first.rounds, 2);
        let mut total = first;
        let mut slices = 0;
        while !total.completed {
            let slice = capped.run_sharded(4, 1, 1);
            assert!(slice.rounds <= 1);
            total.absorb(slice);
            total.completed = slice.completed;
            slices += 1;
            assert!(slices < 100, "resume failed to converge");
        }
        let mut free: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        free.state_mut(NodeId(0)).dirty = true;
        free.wake(NodeId(0));
        let uncapped = free.run_sharded(4, 1, 10_000);
        assert_eq!(total.rounds, uncapped.rounds);
        assert_eq!(total.messages, uncapped.messages);
        assert_eq!(total.node_steps, uncapped.node_steps);
        for v in 0..16 {
            assert_eq!(capped.states()[v].best, free.states()[v].best, "node {v}");
        }
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn switching_planes_mid_flight_panics() {
        let g = path(30);
        let mut inputs = vec![0u64; 30];
        inputs[0] = 9;
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let a = sim.run_sharded(4, 1, 3);
        assert!(!a.completed);
        // Undelivered messages live in the 4-shard plane; the flat
        // executor must refuse.
        let _ = sim.run(1, 10_000);
    }

    /// The lifetime work counters are exact: node-rounds and messages match
    /// the run's [`RepairStats`], the local/boundary split sums to the
    /// message total, and the wake-based scheduler reports zero halted
    /// scans on either plane.
    #[test]
    fn exec_perf_counters_are_exact_and_plane_attributed() {
        let g = path(16);
        let mut inputs = vec![0u64; 16];
        inputs[0] = 9;
        let mut flat: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
        flat.state_mut(NodeId(0)).dirty = true;
        flat.wake(NodeId(0));
        let a = flat.run(1, 10_000);
        let pf = flat.exec_perf();
        assert_eq!(pf.node_rounds, a.node_steps);
        assert_eq!(pf.local_messages, a.messages);
        assert_eq!(pf.boundary_messages, 0);
        assert_eq!(pf.halted_scans, 0);
        assert_eq!(pf.sparse_skips, (a.rounds as u64) * 16 - a.node_steps);
        assert!(pf.stamp_scans > 0);
        let mut sh: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sh.state_mut(NodeId(0)).dirty = true;
        sh.wake(NodeId(0));
        let b = sh.run_sharded(4, 2, 10_000);
        let ps = sh.exec_perf();
        assert_eq!(ps.node_rounds, b.node_steps);
        assert_eq!(ps.local_messages + ps.boundary_messages, b.messages);
        assert!(ps.boundary_messages > 0, "the flood crosses shard borders");
        assert_eq!(ps.halted_scans, 0);
        // Bit-identical trace ⇒ the same nodes were stepped ⇒ the same
        // inbox stamps were exposed, plane notwithstanding.
        assert_eq!(ps.stamp_scans, pf.stamp_scans);
    }

    /// Repeated repairs across an artificially-lowered stamp horizon: the
    /// round counter is renormalized mid-lifecycle (where the old code
    /// asserted), and every repair's stats and final state stay
    /// bit-identical to a twin sim whose counter never crosses it.
    #[test]
    fn lowered_horizon_renormalization_is_bit_identical() {
        let g = path(12);
        let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &[0u64; 12]);
        wrap.set_stamp_horizon(40);
        let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 12]);
        for rep in 1..=20u64 {
            let src = NodeId(((rep as usize * 5) % 12) as u32);
            for sim in [&mut wrap, &mut ctl] {
                sim.state_mut(src).best = rep * 10;
                sim.state_mut(src).dirty = true;
                sim.wake(src);
            }
            let a = wrap.run(1, 32);
            let b = ctl.run(1, 32);
            assert_eq!(a, b, "repair {rep}");
            assert!(a.completed, "repair {rep}");
            for v in 0..12 {
                assert_eq!(
                    wrap.states()[v].best,
                    ctl.states()[v].best,
                    "repair {rep} node {v}"
                );
            }
        }
        // The control's monotonic counter crossed the lowered horizon — the
        // exact point where the pre-fix assert fired — while the wrapping
        // sim was rebased back below it.
        assert!(ctl.round() >= 40, "control round {}", ctl.round());
        assert!(wrap.round() < 40, "wrap round {}", wrap.round());
    }

    /// Same lifecycle on the sharded plane: the cached shard arenas persist
    /// across runs, so renormalization must scrub them too or a stale stamp
    /// could collide with a reused round number.
    #[test]
    fn sharded_plane_survives_stamp_renormalization() {
        let g = path(16);
        let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &[0u64; 16]);
        wrap.set_stamp_horizon(48);
        let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 16]);
        for rep in 1..=12u64 {
            let src = NodeId(((rep as usize * 7) % 16) as u32);
            for sim in [&mut wrap, &mut ctl] {
                sim.state_mut(src).best = rep * 10;
                sim.state_mut(src).dirty = true;
                sim.wake(src);
            }
            let a = wrap.run_sharded(4, 2, 40);
            let b = ctl.run_sharded(4, 2, 40);
            assert_eq!(a, b, "repair {rep}");
            assert!(a.completed, "repair {rep}");
        }
        for v in 0..16 {
            assert_eq!(wrap.states()[v].best, ctl.states()[v].best, "node {v}");
        }
        assert!(ctl.round() >= 48, "control round {}", ctl.round());
        assert!(wrap.round() < 48, "wrap round {}", wrap.round());
    }

    /// Renormalization with messages in flight: a capped run leaves the
    /// flood's frontier undelivered, stamped with the break-point round;
    /// the rebase re-stamps it (parity preserved) so the resumed run
    /// delivers it exactly as a never-rebased twin does.
    #[test]
    fn renormalization_preserves_in_flight_messages() {
        for sharded in [false, true] {
            let run = |sim: &mut ChurnSim<MaxHold>, cap: u32| {
                if sharded {
                    sim.run_sharded(4, 1, cap)
                } else {
                    sim.run(1, cap)
                }
            };
            let g = path(30);
            let mut inputs = vec![0u64; 30];
            inputs[0] = 9;
            let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
            let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
            for sim in [&mut wrap, &mut ctl] {
                sim.state_mut(NodeId(0)).dirty = true;
                sim.wake(NodeId(0));
                let first = run(sim, 5);
                assert!(!first.completed, "sharded {sharded}");
            }
            // Only the resumed run crosses the horizon (5 + 48 >= 50), so
            // the rebase happens with the frontier message mid-flight.
            wrap.set_stamp_horizon(50);
            let a = run(&mut wrap, 48);
            let b = run(&mut ctl, 48);
            assert_eq!(a, b, "sharded {sharded}");
            assert!(a.completed, "sharded {sharded}");
            for v in 0..30 {
                assert_eq!(wrap.states()[v].best, 9, "sharded {sharded} node {v}");
            }
            // The rebase shows in the counter: wrap resumed from round 1,
            // the control from round 5, and both ran the same rounds.
            assert_eq!(wrap.round() + 4, ctl.round(), "sharded {sharded}");
        }
    }

    /// A single run whose round budget alone reaches the horizon cannot be
    /// saved by renormalization and must fail loudly, not wrap silently.
    #[test]
    #[should_panic(expected = "exceeds the stamp horizon")]
    fn round_budget_exceeding_horizon_panics() {
        let g = path(4);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 4]);
        sim.set_stamp_horizon(16);
        let _ = sim.run(1, 1000);
    }

    #[test]
    fn switching_planes_between_completed_runs_is_fine() {
        let g = cycle(12);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[0; 12]);
        sim.state_mut(NodeId(3)).best = 5;
        sim.state_mut(NodeId(3)).dirty = true;
        sim.wake(NodeId(3));
        assert!(sim.run(1, 10_000).completed);
        sim.state_mut(NodeId(7)).best = 9;
        sim.state_mut(NodeId(7)).dirty = true;
        sim.wake(NodeId(7));
        assert!(sim.run_sharded(3, 2, 10_000).completed);
        sim.state_mut(NodeId(1)).best = 11;
        sim.state_mut(NodeId(1)).dirty = true;
        sim.wake(NodeId(1));
        assert!(sim.run(2, 10_000).completed);
        for v in 0..12 {
            assert_eq!(sim.states()[v].best, 11, "node {v}");
        }
    }
}

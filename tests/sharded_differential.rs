//! Differential testing of the pinned-worker sharded engine: for every
//! registry scenario and a sample of churn traces, the engine
//! (locality-aware partition, worker-owned arenas, SPSC boundary rings,
//! epoch protocol) must be **bit-identical** to the sequential executor —
//! same outputs, same round counts, same message counts — over the whole
//! shard × thread grid, including the `parallel(T)` auto-shard alias.
//!
//! This is the contract that makes `Simulator::sharded(s, t)` (and the
//! churn engines' `with_shards`) a pure performance knob, exactly like the
//! thread count before it.

use td_bench::scenario::{registry, ScenarioKind};
use td_bench::workloads;
use td_local::churn::{drive_trace, RepairEngine, RepairMode};
use td_local::Simulator;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::assign::repair::AssignChurnEngine;
use token_dropping::core::proposal;
use token_dropping::local::ChurnEvent;
use token_dropping::orient::protocol::run_distributed;
use token_dropping::orient::repair::OrientChurnEngine;
use token_dropping::orient::Orientation;

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn small_size(kind: ScenarioKind, name: &str) -> u32 {
    match kind {
        ScenarioKind::Game => 4,
        ScenarioKind::Orientation => {
            if name == "cascade-orientation" {
                16
            } else {
                3
            }
        }
        // The exact stable-assignment protocol is O(C·S⁴); size 3 keeps
        // the 14-executor sweep fast while still crossing shard borders.
        ScenarioKind::Assignment => 3,
    }
}

/// Every registry scenario reports identical rounds and message counts
/// under sequential, the `parallel(T)` auto-shard alias, and every
/// (shards × threads) grid point of the engine. Each run also
/// self-verifies its output (stability, rules 1-3, k-boundedness) inside
/// `Scenario::run`.
#[test]
fn registry_scenarios_identical_across_executors() {
    for sc in registry() {
        let size = small_size(sc.kind(), sc.name());
        let seq = sc.run(size, 42, &Simulator::sequential());
        let par = sc.run(size, 42, &Simulator::parallel(3));
        assert_eq!(seq.rounds, par.rounds, "{} parallel rounds", sc.name());
        assert_eq!(
            seq.messages,
            par.messages,
            "{} parallel messages",
            sc.name()
        );
        for &s in &SHARDS {
            for &t in &THREADS {
                let sh = sc.run(size, 42, &Simulator::sharded(s, t));
                assert_eq!(
                    seq.rounds,
                    sh.rounds,
                    "{} rounds diverge at shards {s}, threads {t}",
                    sc.name()
                );
                assert_eq!(
                    seq.messages,
                    sh.messages,
                    "{} messages diverge at shards {s}, threads {t}",
                    sc.name()
                );
            }
        }
    }
}

/// Protocol-level outputs (not just counts): the proposal protocol's move
/// log and solution are bit-identical over the executor grid.
#[test]
fn game_outputs_identical_across_executors() {
    for &seed in &[3u64, 9001] {
        let game = workloads::layered_game(4, 4, seed);
        let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
        for &s in &SHARDS {
            for &t in &THREADS {
                let sh = proposal::run_on_simulator(&game, &Simulator::sharded(s, t));
                assert_eq!(seq.solution, sh.solution, "seed {seed}, {s}x{t}");
                assert_eq!(seq.log, sh.log, "seed {seed}, {s}x{t}");
                assert_eq!(seq.comm_rounds, sh.comm_rounds, "seed {seed}, {s}x{t}");
                assert_eq!(seq.messages, sh.messages, "seed {seed}, {s}x{t}");
            }
        }
    }
}

/// Stable orientation outputs over the grid.
#[test]
fn orientation_outputs_identical_across_executors() {
    for &seed in &[17u64, 9001] {
        let g = workloads::regular_graph(3, 8, seed);
        let seq = run_distributed(&g, &Simulator::sequential());
        seq.orientation.verify_stable(&g).unwrap();
        for &s in &SHARDS {
            for &t in &THREADS {
                let sh = run_distributed(&g, &Simulator::sharded(s, t));
                assert_eq!(seq.orientation, sh.orientation, "seed {seed}, {s}x{t}");
                assert_eq!(seq.comm_rounds, sh.comm_rounds, "seed {seed}, {s}x{t}");
                assert_eq!(seq.messages, sh.messages, "seed {seed}, {s}x{t}");
            }
        }
    }
}

/// Stable assignment outputs (exact and 2-bounded) over the grid.
#[test]
fn assignment_outputs_identical_across_executors() {
    let inst = workloads::uniform_assignment(9, 4, 3);
    for bound in [None, Some(2)] {
        let seq = run_distributed_assignment(&inst, bound, &Simulator::sequential());
        for &s in &SHARDS {
            for &t in &THREADS {
                let sh = run_distributed_assignment(&inst, bound, &Simulator::sharded(s, t));
                assert_eq!(seq.assignment, sh.assignment, "bound {bound:?}, {s}x{t}");
                assert_eq!(seq.comm_rounds, sh.comm_rounds, "bound {bound:?}, {s}x{t}");
                assert_eq!(seq.messages, sh.messages, "bound {bound:?}, {s}x{t}");
            }
        }
    }
}

/// Drives the engine `make(shards, threads)` builds through `trace` at every
/// shard × thread grid point: repair stats and final solution must equal
/// the sequential run's.
fn churn_trace_identical_on_sharded_plane(
    make: impl Fn(usize, usize) -> Box<dyn RepairEngine>,
    trace: &[ChurnEvent],
) {
    let run = |shards: usize, threads: usize| {
        let mut eng = make(shards, threads);
        let stats = drive_trace(eng.as_mut(), trace).unwrap_or_else(|e| panic!("{e}"));
        (stats.total(), eng.solution_words())
    };
    let (seq_stats, seq_fp) = run(1, 1);
    for &s in &SHARDS {
        for &t in &THREADS {
            let (stats, fp) = run(s, t);
            assert_eq!(seq_fp, fp, "solution diverges at {s}x{t}");
            assert_eq!(seq_stats, stats, "repair stats diverge at {s}x{t}");
        }
    }
}

/// A sample of churn traces on the sharded plane: a deterministic edge-flip
/// trace on the orientation repair engine.
#[test]
fn churn_orientation_trace_identical_on_sharded_plane() {
    let g = workloads::regular_graph(4, 10, 7);
    // Walk the edge list with a fixed stride.
    let trace: Vec<ChurnEvent> = (0..12u32)
        .map(|i| {
            let (u, v) = g.endpoints(td_graph::EdgeId((i * 7) % g.num_edges() as u32));
            ChurnEvent::EdgeFlip { u, v }
        })
        .collect();
    let make = |shards, threads| -> Box<dyn RepairEngine> {
        let o = Orientation::toward_larger(&g);
        let eng = OrientChurnEngine::new(g.clone(), o, RepairMode::Incremental);
        Box::new(eng.with_threads(threads).with_shards(shards))
    };
    churn_trace_identical_on_sharded_plane(make, &trace);
}

/// Same for the assignment repair engine, under a drain/rejoin trace with
/// joins and leaves: the leaves take the last customer node, a middle one
/// (the last customer moves into it), the first one, and the moved
/// customer from its new node, so swap-removes patch the sharded plane.
#[test]
fn churn_assignment_trace_identical_on_sharded_plane() {
    let base = workloads::uniform_assignment(18, 6, 11);
    let mut trace: Vec<ChurnEvent> = (0..10u32)
        .map(|i| match i % 3 {
            2 => ChurnEvent::CustomerJoin {
                servers: vec![i % 6, (i + 2) % 6],
            },
            capacity => ChurnEvent::ServerCapacity {
                server: (i / 3) % 6,
                capacity,
            },
        })
        .collect();
    // Customers 18, 19, 20 joined last, in that order.
    trace.extend([20, 7, 0, 19].map(ChurnEvent::CustomerLeave));
    trace.push(ChurnEvent::CustomerJoin {
        servers: vec![1, 4],
    });
    let make = |shards, threads| -> Box<dyn RepairEngine> {
        let eng = AssignChurnEngine::new(&base, RepairMode::Incremental);
        Box::new(eng.with_threads(threads).with_shards(shards))
    };
    churn_trace_identical_on_sharded_plane(make, &trace);
}

/// The quiesced-shard skip is observable: a workload whose active region
/// is confined to one end of a path reports skipped shard-rounds without
/// changing any output.
#[test]
fn quiesced_regions_skip_shard_rounds_without_changing_outputs() {
    let game = workloads::layered_game(4, 6, 5);
    let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
    let sh = proposal::run_on_simulator(&game, &Simulator::sharded(8, 2));
    assert_eq!(seq.log, sh.log);
    let stats = sh.sharding.expect("sharded run reports stats");
    assert_eq!(stats.shards, 8);
    assert!(
        stats.shard_rounds_skipped > 0,
        "layered drains quiesce top shards early: {stats:?}"
    );
}

/// Nodes with input `true` broadcast for 40 rounds; the rest halt at once.
struct HotNodes(bool);

impl td_local::Protocol for HotNodes {
    type Input = bool;
    type Message = u8;
    type Output = ();

    fn init(node: td_local::NodeInit<'_, bool>) -> Self {
        HotNodes(*node.input)
    }

    fn round(
        &mut self,
        ctx: &td_local::RoundCtx,
        _: &td_local::Inbox<'_, u8>,
        outbox: &mut td_local::Outbox<'_, '_, u8>,
    ) -> td_local::Status {
        if !self.0 || ctx.round >= 40 {
            return td_local::Status::Halt;
        }
        outbox.broadcast(1);
        td_local::Status::Continue
    }

    fn finish(self) {}
}

/// The node-granular counterpart of the quiesced-shard skip: with one hot
/// node in every 64, no shard ever fully quiesces (zero skipped
/// shard-rounds), yet the sparse scheduler never visits a cold node —
/// its skips are exactly the dense scan's halted scans.
#[test]
fn scattered_hot_nodes_skip_node_rounds_but_no_shard_rounds() {
    let g = token_dropping::graph::gen::classic::path(4096);
    let inputs: Vec<bool> = (0..4096).map(|v| v % 64 == 0).collect();
    let seq = Simulator::sequential().run::<HotNodes>(&g, &inputs);
    let sh = Simulator::sharded(16, 2).run::<HotNodes>(&g, &inputs);
    assert_eq!((sh.rounds, sh.messages), (seq.rounds, seq.messages));
    let stats = sh.sharding.expect("sharded stats");
    assert_eq!(stats.shard_rounds_skipped, 0, "{stats:?}");
    assert_eq!(sh.perf.halted_scans, 0);
    assert!(sh.perf.sparse_skips > 0);
    assert_eq!(sh.perf.sparse_skips, seq.perf.halted_scans);
}

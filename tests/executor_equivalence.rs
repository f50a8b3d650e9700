//! Cross-stack executor equivalence: the parallel executor must be
//! *bit-identical* to the sequential one — same outputs, same round counts,
//! same message counts — for every protocol stack, at every thread count.
//!
//! This is the contract that lets `Simulator::parallel(t)` be a pure
//! performance knob: the arena's one-writer-per-slot discipline means the
//! round in which a message is delivered, and the content delivered, cannot
//! depend on thread scheduling.

use td_bench::workloads;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::core::proposal;
use token_dropping::local::Simulator;
use token_dropping::orient::protocol::run_distributed;

const THREADS: [usize; 3] = [2, 4, 8];
const SEEDS: [u64; 3] = [3, 17, 9001];

/// The churn (wake-based) executor obeys the same contract: repair traces
/// are bit-identical at every thread count, for both repair engines.
#[test]
fn churn_repair_matches_sequential_at_every_thread_count() {
    use td_local::churn::RepairMode;
    for sc in td_bench::churn::churn_registry() {
        let size = match sc.kind() {
            td_bench::ScenarioKind::Orientation => 48,
            _ => 6,
        };
        for &seed in &SEEDS {
            let seq = sc
                .run(size, 6, seed, 1, RepairMode::Incremental, false)
                .unwrap();
            for &t in &THREADS {
                let par = sc
                    .run(size, 6, seed, t, RepairMode::Incremental, false)
                    .unwrap();
                assert_eq!(
                    seq.fingerprint,
                    par.fingerprint,
                    "{} seed {seed}, threads {t}",
                    sc.name()
                );
                assert_eq!(
                    seq.repair,
                    par.repair,
                    "{} seed {seed}, threads {t}",
                    sc.name()
                );
            }
        }
    }
}

#[test]
fn proposal_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let game = workloads::layered_game(4, 4, seed);
        let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
        for &t in &THREADS {
            let par = proposal::run_on_simulator(&game, &Simulator::parallel(t));
            assert_eq!(seq.solution, par.solution, "seed {seed}, threads {t}");
            assert_eq!(seq.log, par.log, "seed {seed}, threads {t}");
            assert_eq!(seq.comm_rounds, par.comm_rounds, "seed {seed}, threads {t}");
            assert_eq!(seq.messages, par.messages, "seed {seed}, threads {t}");
        }
    }
}

#[test]
fn orientation_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let g = workloads::regular_graph(3, 8, seed);
        let seq = run_distributed(&g, &Simulator::sequential());
        seq.orientation.verify_stable(&g).unwrap();
        for &t in &THREADS {
            let par = run_distributed(&g, &Simulator::parallel(t));
            assert_eq!(seq.orientation, par.orientation, "seed {seed}, threads {t}");
            assert_eq!(seq.comm_rounds, par.comm_rounds, "seed {seed}, threads {t}");
            assert_eq!(seq.messages, par.messages, "seed {seed}, threads {t}");
        }
    }
}

#[test]
fn assignment_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let inst = workloads::uniform_assignment(9, 4, seed);
        for bound in [None, Some(2)] {
            let seq = run_distributed_assignment(&inst, bound, &Simulator::sequential());
            for &t in &THREADS {
                let par = run_distributed_assignment(&inst, bound, &Simulator::parallel(t));
                assert_eq!(
                    seq.assignment, par.assignment,
                    "seed {seed}, bound {bound:?}, threads {t}"
                );
                assert_eq!(
                    seq.comm_rounds, par.comm_rounds,
                    "seed {seed}, bound {bound:?}, threads {t}"
                );
                assert_eq!(
                    seq.messages, par.messages,
                    "seed {seed}, bound {bound:?}, threads {t}"
                );
            }
        }
    }
}

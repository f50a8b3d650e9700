//! Differential testing of the churn engines: for every seeded trace, the
//! incremental repair path must be **bit-identical** to the full-recompute
//! fallback (same final solution, same rounds, same messages — only
//! node-steps may differ, and only downward), and the parallel incremental
//! executor must match the sequential one at every thread count.
//!
//! This is the contract that makes incremental repair safe to ship: the
//! dirty-set optimization and the thread count are pure performance knobs.

use td_bench::churn::{churn_registry, ChurnScenario};
use td_local::churn::RepairMode;

const THREADS: [usize; 3] = [2, 4, 8];

fn scenario_size(sc: &dyn ChurnScenario) -> u32 {
    match sc.kind() {
        td_bench::ScenarioKind::Orientation => 32,
        _ => 5,
    }
}

/// ≥ 100 seeded traces in total: 35 seeds × 3 scenarios, each verified
/// stable after every event inside `run`, and compared across the
/// incremental and full-recompute paths.
#[test]
fn repair_equals_full_recompute_over_100_traces() {
    const SEEDS_PER_SCENARIO: u64 = 35;
    let mut traces = 0usize;
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        for seed in 0..SEEDS_PER_SCENARIO {
            let inc = sc
                .run(size, 8, seed, 1, RepairMode::Incremental, false)
                .unwrap();
            let full = sc
                .run(size, 8, seed, 1, RepairMode::FullRecompute, false)
                .unwrap();
            assert_eq!(
                inc.fingerprint,
                full.fingerprint,
                "{} seed {seed}: solutions diverge",
                sc.name()
            );
            assert_eq!(
                inc.repair.rounds,
                full.repair.rounds,
                "{} seed {seed}: rounds diverge",
                sc.name()
            );
            assert_eq!(
                inc.repair.messages,
                full.repair.messages,
                "{} seed {seed}: messages diverge",
                sc.name()
            );
            assert!(
                inc.repair.node_steps <= full.repair.node_steps,
                "{} seed {seed}: incremental stepped more ({} > {})",
                sc.name(),
                inc.repair.node_steps,
                full.repair.node_steps
            );
            traces += 1;
        }
    }
    assert!(traces >= 100, "only {traces} traces exercised");
}

/// The incremental executor is deterministic across thread counts: same
/// final solution, same rounds, same messages, same node-steps.
#[test]
fn parallel_incremental_matches_sequential() {
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        for seed in [3u64, 17] {
            let seq = sc
                .run(size, 8, seed, 1, RepairMode::Incremental, false)
                .unwrap();
            for &t in &THREADS {
                let par = sc
                    .run(size, 8, seed, t, RepairMode::Incremental, false)
                    .unwrap();
                assert_eq!(
                    seq.fingerprint,
                    par.fingerprint,
                    "{} seed {seed} threads {t}",
                    sc.name()
                );
                assert_eq!(
                    seq.repair,
                    par.repair,
                    "{} seed {seed} threads {t}",
                    sc.name()
                );
            }
        }
    }
}

/// The fallback is also executor-independent (all-dirty wakes are the
/// stress case for the wake bookkeeping).
#[test]
fn parallel_full_recompute_matches_sequential() {
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        let seq = sc
            .run(size, 6, 9, 1, RepairMode::FullRecompute, false)
            .unwrap();
        for &t in &THREADS {
            let par = sc
                .run(size, 6, 9, t, RepairMode::FullRecompute, false)
                .unwrap();
            assert_eq!(
                seq.fingerprint,
                par.fingerprint,
                "{} threads {t}",
                sc.name()
            );
            assert_eq!(seq.repair, par.repair, "{} threads {t}", sc.name());
        }
    }
}

//! Locality in memory: once warm, an edge insert, delete or flip on the
//! orientation churn engine allocates nothing proportional to `n`. The
//! graph rows, the message arena and the orientation are patched in place,
//! so an event allocates only the re-initialized neighborhood's small
//! per-node buffers and the executor's per-round awake lists.
//!
//! Counting follows `crates/local/tests/no_alloc.rs`: per thread, so the
//! test harness's own threads never land in a measurement. The engine runs
//! sequentially, so the test thread makes every allocation of an event.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use td_graph::gen::random::random_regular;
use td_graph::NodeId;
use td_local::churn::{ChurnEvent, RepairMode};
use td_orient::{OrientChurnEngine, Orientation};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The largest single allocation since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated by `f` on this thread, and its largest allocation.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    let b0 = BYTES.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, BYTES.with(Cell::get) - b0, LARGEST.with(Cell::get))
}

#[test]
fn steady_state_edge_churn_allocates_nothing_proportional_to_n() {
    let n = 16384usize;
    let mut rng = SmallRng::seed_from_u64(3);
    let g = random_regular(n, 4, &mut rng, 500).expect("4-regular graph");
    let mut eng = OrientChurnEngine::new(
        g.clone(),
        Orientation::toward_larger(&g),
        RepairMode::Incremental,
    );
    eng.stabilize();
    let mut live: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
    let mut present: HashSet<(u32, u32)> = live.iter().copied().collect();
    let fresh_edge = |rng: &mut SmallRng, present: &mut HashSet<(u32, u32)>| loop {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v && present.insert((u.min(v), u.max(v))) {
            return (u.min(v), u.max(v));
        }
    };

    // Warm-up: the first insert moves two full rows to the tail, which
    // grows the slot arrays and the arena once (amortized doubling).
    let (u, v) = fresh_edge(&mut rng, &mut present);
    live.push((u, v));
    let ins = ChurnEvent::EdgeInsert {
        u: NodeId(u),
        v: NodeId(v),
    };
    eng.apply(&ins).expect("warm-up insert");
    let (a, b) = live.swap_remove(rng.gen_range(0..live.len()));
    present.remove(&(a, b));
    let del = ChurnEvent::EdgeDelete {
        u: NodeId(a),
        v: NodeId(b),
    };
    eng.apply(&del).expect("warm-up delete");

    let budget = 4 * n as u64;
    let mut kinds = [0usize; 3];
    for i in 0..240 {
        let ev = match rng.gen_range(0..6u32) {
            0 => {
                let (u, v) = fresh_edge(&mut rng, &mut present);
                live.push((u, v));
                kinds[0] += 1;
                ChurnEvent::EdgeInsert {
                    u: NodeId(u),
                    v: NodeId(v),
                }
            }
            1 => {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                present.remove(&(u, v));
                kinds[1] += 1;
                ChurnEvent::EdgeDelete {
                    u: NodeId(v),
                    v: NodeId(u),
                }
            }
            _ => {
                let (u, v) = live[rng.gen_range(0..live.len())];
                kinds[2] += 1;
                ChurnEvent::EdgeFlip {
                    u: NodeId(u),
                    v: NodeId(v),
                }
            }
        };
        let (res, bytes, largest) = measure(|| eng.apply(&ev));
        res.unwrap_or_else(|e| panic!("event {i} {ev:?}: {e}"));
        assert!(
            largest <= 4096,
            "event {i} {ev:?}: one allocation of {largest} bytes"
        );
        assert!(
            bytes < budget,
            "event {i} {ev:?}: allocated {bytes} bytes, budget 4n = {budget}"
        );
    }
    assert!(kinds.iter().all(|&k| k >= 20), "a mixed stream: {kinds:?}");
    eng.verify().expect("stable after the stream");
}

//! Locality in memory: once warm, a customer join or leave or a server
//! drain or restore on the assignment churn engine allocates nothing
//! proportional to `n`. The network, the message arena and the node
//! states are patched in place, so an event allocates only the touched
//! customers' small per-node buffers and the executor's per-round awake
//! lists.
//!
//! Counting follows `crates/orient/tests/churn_alloc.rs`: per thread, so
//! the test harness's own threads never land in a measurement. The engine
//! runs sequentially, so the test thread makes every allocation of an
//! event.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_assign::{AssignChurnEngine, AssignmentInstance};
use td_local::churn::{ChurnEvent, RepairMode};

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

/// Two or three distinct servers out of `ns`.
fn candidates(rng: &mut SmallRng, ns: u32) -> Vec<u32> {
    let k = rng.gen_range(2..=3usize);
    let mut servers = Vec::with_capacity(k);
    while servers.len() < k {
        let s = rng.gen_range(0..ns);
        if !servers.contains(&s) {
            servers.push(s);
        }
    }
    servers
}

#[test]
fn steady_state_membership_churn_allocates_nothing_proportional_to_n() {
    let ns = 16384usize;
    let mut rng = SmallRng::seed_from_u64(5);
    let inst = AssignmentInstance::random(2 * ns, ns, 2..=3, &mut rng);
    let n = inst.num_customers() + ns;
    let mut eng = AssignChurnEngine::new(&inst, RepairMode::Incremental);
    eng.stabilize();
    let mut alive: Vec<u32> = (0..inst.num_customers() as u32).collect();
    let mut next_id = alive.len() as u32;

    // Warm-up: the first join grows the per-node arrays, the slot arrays
    // and the arena once (amortized doubling).
    eng.apply(&ChurnEvent::CustomerJoin {
        servers: candidates(&mut rng, ns as u32),
    })
    .expect("warm-up join");
    alive.push(next_id);
    next_id += 1;
    let c = alive.swap_remove(rng.gen_range(0..alive.len()));
    eng.apply(&ChurnEvent::CustomerLeave(c))
        .expect("warm-up leave");

    let budget = 4 * n as u64;
    let mut drained: Option<u32> = None;
    let mut kinds = [0usize; 3];
    for i in 0..240 {
        let ev = match rng.gen_range(0..6u32) {
            0 | 1 => {
                alive.push(next_id);
                next_id += 1;
                kinds[0] += 1;
                ChurnEvent::CustomerJoin {
                    servers: candidates(&mut rng, ns as u32),
                }
            }
            2 | 3 => {
                // The last node's customer often: `alive` lists the
                // customers in node order, as swap-removes keep it.
                let k = if i % 3 == 0 {
                    alive.len() - 1
                } else {
                    rng.gen_range(0..alive.len())
                };
                kinds[1] += 1;
                ChurnEvent::CustomerLeave(alive.swap_remove(k))
            }
            _ => {
                kinds[2] += 1;
                match drained.take() {
                    Some(server) => ChurnEvent::ServerCapacity {
                        server,
                        capacity: 1,
                    },
                    None => {
                        let server = rng.gen_range(0..ns as u32);
                        drained = Some(server);
                        ChurnEvent::ServerCapacity {
                            server,
                            capacity: 0,
                        }
                    }
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
    assert!(kinds.iter().all(|&k| k >= 40), "a mixed stream: {kinds:?}");
    eng.verify().expect("stable after the stream");
}

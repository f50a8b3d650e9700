//! Proof of the zero-allocation hot loop: after warm-up (arena + state
//! setup), `Simulator::run` performs **no per-round message-buffer
//! allocations** — the flat message arena is reused across rounds, delivery
//! is a buffer-parity flip, and nothing in the round loop touches the
//! allocator. We verify this with a counting global allocator: for a
//! protocol whose own code never allocates, the total allocation count of a
//! run must be *independent of the number of rounds*.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Simulator, Status};

/// Counts allocations per thread, so the test harness's own threads (the
/// runner printing results, the other test starting up) never land in a
/// measurement — a process-wide counter made these tests flaky.
///
/// A parallel run's allocations happen on the executor's workers, which
/// the run spawns and joins. They are attributed by *birth*: a thread
/// whose first allocation falls inside an open measurement window belongs
/// to that window, and its allocations are added to [`SPAWNED`]. Only the
/// parallel test reads [`SPAWNED`]; the sequential one counts its own
/// thread alone, so a harness thread starting up late cannot land in it.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
    /// The window this thread was born in; `u64::MAX` if born outside
    /// every window, 0 before its first allocation.
    static BORN: Cell<u64> = const { Cell::new(0) };
}

/// The open measurement window (0 = none).
static WINDOW: AtomicU64 = AtomicU64::new(0);
/// Allocations by threads born inside the open window.
static SPAWNED: AtomicU64 = AtomicU64::new(0);
/// Source of window ids.
static NEXT_WINDOW: AtomicU64 = AtomicU64::new(1);

/// The two tests still take turns: windows are process-wide.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = MINE.try_with(|c| c.set(c.get() + 1));
        let w = WINDOW.load(Ordering::Relaxed);
        let _ = BORN.try_with(|b| {
            if b.get() == 0 {
                b.set(if w == 0 { u64::MAX } else { w });
            }
            if w != 0 && b.get() == w {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
            }
        });
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, plus, if `workers`, on the
/// threads it spawns and joins before returning.
fn count_allocs<R>(workers: bool, f: impl FnOnce() -> R) -> (R, u64) {
    let mine = || MINE.with(Cell::get);
    let w = NEXT_WINDOW.fetch_add(1, Ordering::Relaxed);
    let (mine0, spawned0) = (mine(), SPAWNED.load(Ordering::Relaxed));
    WINDOW.store(w, Ordering::Relaxed);
    let out = f();
    WINDOW.store(0, Ordering::Relaxed);
    let spawned = SPAWNED.load(Ordering::Relaxed) - spawned0;
    (out, mine() - mine0 + if workers { spawned } else { 0 })
}

/// Gossip until the horizon given as the node input. Neither `round` nor
/// the message type allocates, so every allocation of a run happens in the
/// simulator's setup/teardown.
struct Gossip {
    horizon: u32,
    acc: u64,
}

impl Protocol for Gossip {
    type Input = u32;
    type Message = u64;
    type Output = u64;

    fn init(node: NodeInit<'_, u32>) -> Self {
        Gossip {
            horizon: *node.input,
            acc: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.id.0 as u64 + 1),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, '_, u64>,
    ) -> Status {
        for (_, &m) in inbox.iter() {
            self.acc ^= m.rotate_left(7);
        }
        outbox.broadcast(self.acc);
        if ctx.round >= self.horizon {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

/// Allocations of one run; `workers` also counts the threads it spawns.
fn allocs_during(sim: &Simulator, g: &td_graph::CsrGraph, horizon: u32, workers: bool) -> u64 {
    let inputs = vec![horizon; g.num_nodes()];
    // The run joins its workers before it returns, so their allocations
    // are all in before the count is read.
    let (out, allocs) = count_allocs(workers, || sim.run::<Gossip>(g, &inputs));
    // The halting round itself is counted, hence horizon + 1.
    assert_eq!(out.rounds, horizon + 1);
    allocs
}

fn ring(n: usize) -> td_graph::CsrGraph {
    let mut b = td_graph::GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(
            td_graph::NodeId::from(i),
            td_graph::NodeId::from((i + 1) % n),
        )
        .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn sequential_allocations_are_round_count_independent() {
    let _guard = SERIAL.lock().unwrap();
    let g = ring(64);
    let sim = Simulator::sequential();
    // Warm-up: fault in allocator/runtime one-time lazy paths.
    allocs_during(&sim, &g, 4, false);
    let short = allocs_during(&sim, &g, 8, false);
    let long = allocs_during(&sim, &g, 256, false);
    assert_eq!(
        short, long,
        "round loop allocated: {short} allocs for 8 rounds vs {long} for 256"
    );
}

#[test]
fn parallel_allocations_are_round_count_independent() {
    let _guard = SERIAL.lock().unwrap();
    let g = ring(64);
    let sim = Simulator::parallel(4);
    allocs_during(&sim, &g, 4, true);
    let short = allocs_during(&sim, &g, 8, true);
    let long = allocs_during(&sim, &g, 256, true);
    assert_eq!(
        short, long,
        "round loop allocated: {short} allocs for 8 rounds vs {long} for 256"
    );
}

//! Heap traffic of a steady-state delta cycle, counted by a global
//! allocator wrapper. It lives in a test binary of its own so the
//! counting allocator sees only these tests; counts are per thread, so
//! tests running side by side do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use sysc::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const PERIOD: SimTime = SimTime::from_ns(10);
const CYCLES: u64 = 1_000;

/// Eight methods on the rising edge of `clk`, counting their activations.
fn posedge_methods(sim: &Simulator, posedge: EventId) -> Rc<Cell<u64>> {
    let runs = Rc::new(Cell::new(0));
    for i in 0..8 {
        let r = runs.clone();
        sim.process(format!("m{i}")).sensitive(posedge).no_init().method(move |_| {
            r.set(r.get() + 1);
            black_box(());
        });
    }
    runs
}

#[test]
fn method_clock_delta_cycles_allocate_nothing() {
    let sim = Simulator::new();
    let clk = sim.signal::<bool>("clk");
    let c = clk.clone();
    sim.process("clk.gen").method(move |ctx| {
        c.write(!c.read());
        ctx.next_trigger_in(PERIOD / 2);
    });
    let runs = posedge_methods(&sim, clk.posedge());
    sim.run_for(PERIOD * 10); // warm-up: the kernel's buffers grow here
    let before = runs.get();
    let n = allocs_during(|| {
        sim.run_for(PERIOD * CYCLES);
    });
    assert_eq!(runs.get() - before, 8 * CYCLES, "every edge ran all eight methods");
    assert_eq!(n, 0, "a steady-state delta cycle must not touch the heap");
}

#[test]
fn thread_clock_allocates_once_per_thread_activation() {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", PERIOD);
    let runs = posedge_methods(&sim, clk.posedge());
    sim.run_for(PERIOD * 10);
    let (acts, method_runs) = (sim.stats().activations, runs.get());
    let n = allocs_during(|| {
        sim.run_for(PERIOD * CYCLES);
    });
    let thread_acts = (sim.stats().activations - acts) - (runs.get() - method_runs);
    assert_eq!(thread_acts, 2 * CYCLES, "the clock thread runs on both edges");
    assert_eq!(n, thread_acts, "only the thread wait frame may allocate");
}

//! What a delta cycle pays for: which writes request an update, how the
//! race detector's write window behaves when a write requests none, and
//! how multicycle sleep counts the triggers it swallows.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use sysc::prelude::*;
use sysc::RaceElem;

/// Registers a method that counts `sig`'s value-changed notifications.
fn count_changes<T: SigValue>(sim: &Simulator, sig: &Signal<T>) -> Rc<Cell<u32>> {
    let n = Rc::new(Cell::new(0));
    let c = n.clone();
    sim.process(format!("{}.watch", sig.name()))
        .sensitive(sig.changed())
        .no_init()
        .method(move |_| c.set(c.get() + 1));
    n
}

// --- writes that request no update -------------------------------------------

#[test]
fn same_value_write_requests_no_update() {
    let sim = Simulator::new();
    let sig = sim.signal_with::<u32>("s", 5);
    let changes = count_changes(&sim, &sig);
    let w = sig.clone();
    sim.process("writer").thread(move |_| {
        w.write(5);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);
    assert_eq!(sim.stats().updates, 0, "writing the current value requests no update");
    assert_eq!(changes.get(), 0);
    assert_eq!(sig.read(), 5);
}

#[test]
fn driver_write_that_keeps_the_resolution_requests_no_update() {
    let sim = Simulator::new();
    let bus = sim.signal::<Lv32>("bus");
    let changes = count_changes(&sim, &bus);
    let (a, b) = (bus.out_port(), bus.out_port());
    let step = Cell::new(0);
    sim.process("drivers").thread(move |_| {
        step.set(step.get() + 1);
        if step.get() == 1 {
            a.write(Lv32::from_u32(0x1234));
            return Next::Delta;
        }
        // Same drive on `a`, and `b` releases a slot that was already
        // released: the resolved value stays 0x1234.
        a.write(Lv32::from_u32(0x1234));
        b.release();
        Next::Done
    });
    sim.run_for(SimTime::ZERO);
    assert_eq!(bus.read().to_u32(), Some(0x1234));
    assert_eq!(sim.stats().updates, 1, "only the first drive changed the resolution");
    assert_eq!(changes.get(), 1);
}

#[test]
fn write_then_write_back_in_one_delta_commits_nothing() {
    let sim = Simulator::new();
    let sig = sim.signal_with::<u32>("s", 5);
    let changes = count_changes(&sim, &sig);
    let w = sig.clone();
    sim.process("writer").thread(move |_| {
        w.write(6);
        w.write(5);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);
    assert_eq!(sig.read(), 5, "the last write of the delta decides the commit");
    assert_eq!(sim.stats().updates, 0, "a request written back commits no update");
    assert_eq!(changes.get(), 0);
}

// --- race window ----------------------------------------------------------------

/// Two same-phase processes write `fought` in one delta: `keeps` writes
/// the current value, `moves` a new one. Returns the committed value and
/// the processes of the scheduling races flagged on `fought`.
fn race_on_current_value_write(order: ScheduleOrder) -> (u32, Vec<(String, String)>) {
    let sim = Simulator::new();
    sim.set_schedule_order(order);
    sim.race_detect_enable();
    let sig = sim.signal_with::<u32>("fought", 5);
    let (a, b) = (sig.clone(), sig.clone());
    sim.process("keeps").thread(move |_| {
        a.write(5);
        Next::Done
    });
    sim.process("moves").thread(move |_| {
        b.write(9);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);
    let g = sim.design_graph();
    let races = g
        .sched_races
        .iter()
        .filter(|r| matches!(r.elem, RaceElem::Signal(s) if g.signals[s].name == "fought"))
        .map(|r| (g.processes[r.proc_a].name.clone(), g.processes[r.proc_b].name.clone()))
        .collect();
    (sig.read(), races)
}

#[test]
fn race_is_flagged_when_one_writer_writes_the_current_value() {
    let pair = vec![("keeps".to_string(), "moves".to_string())];
    // The last writer wins, so the committed value depends on the order.
    for (order, value) in [(ScheduleOrder::Fifo, 9), (ScheduleOrder::Lifo, 5)] {
        assert_eq!(
            race_on_current_value_write(order),
            (value, pair.clone()),
            "{order}: the race must be flagged whichever writer runs first"
        );
    }
}

#[test]
fn same_value_write_does_not_open_a_race_window_past_its_delta() {
    let sim = Simulator::new();
    sim.race_detect_enable();
    let sig = sim.signal_with::<u32>("s", 5);
    let (a, b) = (sig.clone(), sig.clone());
    sim.process("first").thread(move |_| {
        a.write(5);
        Next::Done
    });
    let go = sim.signal::<bool>("go");
    let g = go.clone();
    sim.process("kick").thread(move |_| {
        g.write(true);
        Next::Done
    });
    sim.process("later").sensitive(go.changed()).no_init().method(move |_| b.write(9));
    sim.run_for(SimTime::ZERO);
    assert_eq!(sig.read(), 9);
    let g = sim.design_graph();
    assert!(g.races.is_empty() && g.sched_races.is_empty(), "writes one delta apart never race");
}

// --- multicycle sleep -----------------------------------------------------------

const PERIOD: SimTime = SimTime::from_ns(10);

fn cycle(ctx: &Ctx) -> u64 {
    ctx.now().as_ps() / PERIOD.as_ps()
}

/// A `Next::Cycles(4)` thread woken by two clock edges that fire in one
/// update phase counts them as one trigger, and one woken by a timed
/// notification and a clock edge at one time point (distinct windows:
/// time advance, then the edge's delta) counts two. Cycles pinned from
/// the kernel that queued an activation per swallowed trigger.
#[test]
fn multicycle_sleep_counts_coalesced_triggers_once() {
    let sim = Simulator::new();
    let c1: Clock<bool> = Clock::new(&sim, "c1", PERIOD);
    let c2: Clock<bool> = Clock::new(&sim, "c2", PERIOD);
    let tick = sim.event("tick");
    for n in 1..=16 {
        sim.notify_after(tick, PERIOD * n);
    }
    let same_phase = Rc::new(RefCell::new(Vec::new()));
    let log = same_phase.clone();
    sim.process("two_edges").sensitive(c1.posedge()).sensitive(c2.posedge()).no_init().thread(
        move |ctx| {
            log.borrow_mut().push(cycle(ctx));
            Next::Cycles(4)
        },
    );
    let two_windows = Rc::new(RefCell::new(Vec::new()));
    let log = two_windows.clone();
    sim.process("tick_and_edge").sensitive(tick).sensitive(c1.posedge()).no_init().thread(
        move |ctx| {
            log.borrow_mut().push(cycle(ctx));
            Next::Cycles(4)
        },
    );
    sim.run_for(PERIOD * 16 + SimTime::from_ns(5));
    assert_eq!(*same_phase.borrow(), vec![0, 4, 8, 12, 16]);
    assert_eq!(*two_windows.borrow(), vec![0, 2, 4, 6, 8, 10, 12, 14, 16]);
}

/// A trigger counted before a suspend stays counted: SystemC counts
/// `wait(n)` triggers as they arrive. Triggers arriving while suspended
/// coalesce into the one wake-up `resume` replays.
#[test]
fn multicycle_sleep_keeps_triggers_counted_before_a_suspend() {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", PERIOD);
    let sleeper: Rc<Cell<Option<ProcId>>> = Rc::new(Cell::new(None));
    // Registered first, so it runs before the sleeper in each delta.
    let (s, target) = (sim.clone(), sleeper.clone());
    sim.process("swapper").sensitive(clk.posedge()).no_init().method(move |ctx| {
        let pid = target.get().expect("sleeper registered");
        match cycle(ctx) {
            5 => s.suspend(pid),
            7 => s.resume(pid),
            _ => {}
        }
    });
    let runs = Rc::new(RefCell::new(Vec::new()));
    let log = runs.clone();
    let pid = sim.process("sleeper").sensitive(clk.posedge()).no_init().method(move |ctx| {
        log.borrow_mut().push(cycle(ctx));
        ctx.next_trigger_cycles(4);
    });
    sleeper.set(Some(pid));
    sim.run_for(PERIOD * 12 + SimTime::from_ns(5));
    // Cycle 5's edge is counted on arrival, before the swapper suspends
    // the sleeper; cycles 6 and 7 arrive while it is suspended and count
    // once, on resume; cycle 8 is the last swallowed trigger.
    assert_eq!(*runs.borrow(), vec![0, 4, 9]);
}

//! Floors: the host cost of one kernel primitive or one ISS instruction,
//! measured on synthetic designs built on the public `sysc` and
//! `microblaze` APIs (the shapes of the `kernel_primitives` and
//! `iss_speed` benches). A floor times a primitive with no model work
//! around it, so floor × count per simulated cycle estimates how much of
//! a boot's host time that layer takes.

use microblaze::asm::assemble;
use microblaze::{Cpu, FlatRam};
use std::hint::black_box;
use std::time::Instant;
use sysc::{Clock, SimTime, Simulator};

/// Measured floors, host nanoseconds per event.
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    /// One process activation: eight empty methods on a clock edge.
    pub ns_per_act: f64,
    /// One committed signal update: an external write plus a zero-time
    /// run.
    pub ns_per_update: f64,
    /// One delta cycle: a chain of eight methods, one delta each.
    pub ns_per_delta: f64,
    /// One retired instruction of a mixed ALU/load/store loop on the
    /// functional ISS over flat RAM.
    pub ns_per_insn: f64,
}

/// Runs `chunk` (which returns the events it caused) for at least
/// `secs` after one untimed call; returns host ns per event.
fn ns_per_event(secs: f64, mut chunk: impl FnMut() -> u64) -> f64 {
    black_box(chunk());
    let t0 = Instant::now();
    let mut events = 0u64;
    while t0.elapsed().as_secs_f64() < secs {
        events += chunk();
    }
    t0.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// Measures every floor for about `secs` each.
pub fn measure(secs: f64) -> Floors {
    Floors {
        ns_per_act: activation(secs),
        ns_per_update: update(secs),
        ns_per_delta: delta(secs),
        ns_per_insn: instruction(secs),
    }
}

fn activation(secs: f64) -> f64 {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    for i in 0..8 {
        sim.process(format!("m{i}")).sensitive(clk.posedge()).no_init().method(|_| {
            black_box(());
        });
    }
    ns_per_event(secs, || {
        let before = sim.stats().activations;
        sim.run_for(SimTime::from_ns(10) * 1000);
        sim.stats().activations - before
    })
}

fn update(secs: f64) -> f64 {
    let sim = Simulator::new();
    let s = sim.signal::<u32>("s");
    let mut v = 0u32;
    ns_per_event(secs, || {
        let before = sim.stats().updates;
        for _ in 0..1000 {
            v = v.wrapping_add(1);
            s.write(black_box(v));
            sim.run_for(SimTime::ZERO);
        }
        sim.stats().updates - before
    })
}

fn delta(secs: f64) -> f64 {
    let sim = Simulator::new();
    let sigs: Vec<_> = (0..9).map(|i| sim.signal::<u32>(&format!("s{i}"))).collect();
    for i in 0..8 {
        let (src, dst) = (sigs[i].clone(), sigs[i + 1].clone());
        sim.process(format!("p{i}"))
            .sensitive(sigs[i].changed())
            .no_init()
            .method(move |_| dst.write(src.read().wrapping_add(1)));
    }
    let head = sigs[0].clone();
    let mut v = 0u32;
    ns_per_event(secs, || {
        let before = sim.stats().deltas;
        for _ in 0..100 {
            v = v.wrapping_add(1);
            head.write(v);
            sim.run_for(SimTime::ZERO);
        }
        sim.stats().deltas - before
    })
}

fn instruction(secs: f64) -> f64 {
    let img = assemble(
        r#"
_start: addik r3, r3, 1
        add   r4, r4, r3
        xor   r5, r4, r3
        swi   r4, r0, 0x800
        lwi   r6, r0, 0x800
        addik r7, r7, -1
        bri   _start
    "#,
    )
    .expect("the floor loop assembles");
    let mut ram = FlatRam::with_image(0x1000, &img.flatten(0, 0x1000));
    let mut cpu = Cpu::new(0);
    ns_per_event(secs, || {
        for _ in 0..10_000 {
            black_box(cpu.step(&mut ram).expect("the floor loop stays in RAM"));
        }
        10_000
    })
}

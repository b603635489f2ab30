//! Reduces a run's iterations to the metrics of the catalogue.

use crate::metrics::{median, p95, Metric, END_TO_END, PER_LAYER};
use crate::workloads::{Counts, Iteration, RunOutput, Setup, PHASES, PROC_GROUPS};

/// `a / b`, or 0 for an empty base.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Puts `values` in catalogue order, checking the set is exactly the
/// catalogue's.
fn in_order(table: &'static [Metric], values: Vec<(&str, f64)>) -> Vec<(&'static Metric, f64)> {
    assert_eq!(values.len(), table.len(), "one value per catalogue entry");
    table
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name);
            (m, v.unwrap_or_else(|| panic!("no value computed for {}", m.name)).1)
        })
        .collect()
}

fn unprofiled(out: &RunOutput) -> impl Iterator<Item = &Iteration> {
    out.iters.iter().filter(|i| !i.profiled)
}

fn sim_cps<'a>(its: impl Iterator<Item = &'a Iteration>) -> f64 {
    median(&its.map(|i| i.meter.cps()).collect::<Vec<_>>())
}

/// The end-to-end metrics, from the unprofiled iterations.
pub fn end_to_end(out: &RunOutput) -> Vec<(&'static Metric, f64)> {
    let ops: Vec<f64> = unprofiled(out).flat_map(|i| i.op_ms.iter().copied()).collect();
    let ops_per_s: Vec<f64> =
        unprofiled(out).map(|i| ratio(i.op_ms.len() as f64, i.wall_s)).collect();
    let setups: Vec<f64> = out.setups.iter().map(|s| s.total_s()).collect();
    in_order(
        &END_TO_END,
        vec![
            ("sim_cps", sim_cps(unprofiled(out))),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", out.peak_rss_mb),
            ("ops_per_s", median(&ops_per_s)),
            ("op_ms_p50", median(&ops)),
            ("op_ms_p95", p95(&ops)),
        ],
    )
}

/// The per-layer metrics of a profile run.
pub fn per_layer(out: &RunOutput) -> Vec<(&'static Metric, f64)> {
    let floors = out.floors.expect("a profile run measures the floors");
    let c = out.iters.iter().fold(Counts::default(), |acc, i| acc.plus(i.meter.counts));
    let cycles = c.cycles as f64;
    let per_cycle = |n: u64| ratio(n as f64, cycles);
    let per_kcycle = |n: u64| ratio(n as f64 * 1e3, cycles);
    let all = |f: fn(&Iteration) -> &Vec<f64>| -> Vec<f64> {
        out.iters.iter().flat_map(|i| f(i).iter().copied()).collect()
    };
    let run_s: f64 = out.iters.iter().map(|i| i.meter.ns / 1e9).sum();
    let vcd_bytes: u64 = out.iters.iter().map(|i| i.vcd_bytes).sum();
    let setups = |f: fn(&Setup) -> f64| median(&out.setups.iter().map(f).collect::<Vec<_>>()) * 1e3;

    let unprofiled_cps = sim_cps(unprofiled(out));
    let profiled_cps = sim_cps(out.iters.iter().filter(|i| i.profiled));
    let host_ns_per_cycle = ratio(1e9, unprofiled_cps);
    let act_per_cycle = per_cycle(c.activations);
    let insn_per_cycle = per_cycle(c.instructions);

    let mut v: Vec<(&str, f64)> = vec![
        ("sysc.act_per_cycle", act_per_cycle),
        ("sysc.delta_per_cycle", per_cycle(c.deltas)),
        ("sysc.update_per_cycle", per_cycle(c.updates)),
        ("sysc.timed_per_cycle", per_cycle(c.timed_steps)),
        ("sysc.floor_ns_per_act", floors.ns_per_act),
        ("sysc.floor_ns_per_update", floors.ns_per_update),
        ("sysc.floor_ns_per_delta", floors.ns_per_delta),
        ("sysc.vcd.bytes_per_cycle", per_cycle(vcd_bytes)),
        ("sysc.vcd.write_mb_per_s", ratio(vcd_bytes as f64 / 1e6, run_s)),
        ("microblaze.insn_per_cycle", insn_per_cycle),
        ("microblaze.floor_ns_per_insn", floors.ns_per_insn),
        ("platform.access.dmi_hit_share", ratio(c.dmi_hits as f64, c.accesses as f64)),
        ("platform.access.dispatcher_share", ratio(c.dispatcher as f64, c.accesses as f64)),
        ("platform.access.opb_xfer_per_kcycle", per_kcycle(c.opb_transfers)),
        ("platform.access.arb_conflict_per_kcycle", per_kcycle(c.arb_conflicts)),
        (
            "platform.access.dmi_invalidations",
            ratio(c.dmi_invalidations as f64, out.iters.len() as f64),
        ),
        ("checkpoint.save_ms", median(&all(|i| &i.save_ms))),
        ("checkpoint.restore_ms", median(&all(|i| &i.restore_ms))),
        ("checkpoint.blob_kb", median(&all(|i| &i.blob_bytes)) / 1e3),
        ("workload.build_ms", setups(|s| s.workload_s)),
        ("platform.build_ms", setups(|s| s.platform_s)),
        ("host.ns_per_cycle", host_ns_per_cycle),
        ("est.sysc_share", ratio(act_per_cycle * floors.ns_per_act, host_ns_per_cycle)),
        ("est.microblaze_share", ratio(insn_per_cycle * floors.ns_per_insn, host_ns_per_cycle)),
        ("profile.overhead", ratio(unprofiled_cps, profiled_cps)),
    ];

    let (mut acts, mut act_cycles) = ([0u64; PROC_GROUPS.len()], 0u64);
    for (a, n) in out.iters.iter().filter_map(|i| i.proc_acts) {
        acts.iter_mut().zip(a).for_each(|(t, x)| *t += x);
        act_cycles += n;
    }
    const PROC_NAMES: [&str; PROC_GROUPS.len()] = [
        "platform.proc.clock.act_per_cycle",
        "platform.proc.cpu.act_per_cycle",
        "platform.proc.opb.act_per_cycle",
        "platform.proc.slave.act_per_cycle",
        "platform.proc.uart.act_per_cycle",
        "platform.proc.timer.act_per_cycle",
        "platform.proc.intc.act_per_cycle",
        "platform.proc.sync.act_per_cycle",
        "platform.proc.region.act_per_cycle",
        "platform.proc.other.act_per_cycle",
    ];
    for (name, n) in PROC_NAMES.into_iter().zip(acts) {
        v.push((name, ratio(n as f64, act_cycles as f64)));
    }

    // Phase times from the unprofiled iterations; the reconfiguration
    // phase (ckpt_fork only) is folded into phase 10, the phase it ends
    // the boot in place of, so every workload reports the same names.
    let (mut ns, mut cyc) = ([0f64; PHASES], [0u64; PHASES]);
    for i in unprofiled(out) {
        ns.iter_mut().zip(i.meter.phase_ns).for_each(|(t, x)| *t += x);
        cyc.iter_mut().zip(i.meter.phase_cycles).for_each(|(t, x)| *t += x);
    }
    const PHASE_NAMES: [&str; 10] = [
        "phase.1.ns_per_cycle",
        "phase.2.ns_per_cycle",
        "phase.3.ns_per_cycle",
        "phase.4.ns_per_cycle",
        "phase.5.ns_per_cycle",
        "phase.6.ns_per_cycle",
        "phase.7.ns_per_cycle",
        "phase.8.ns_per_cycle",
        "phase.9.ns_per_cycle",
        "phase.10.ns_per_cycle",
    ];
    for (k, name) in PHASE_NAMES.into_iter().enumerate() {
        let phase = k + 1;
        let (n, c) = if phase == 10 {
            (ns[10] + ns[11], cyc[10] + cyc[11])
        } else {
            (ns[phase], cyc[phase])
        };
        v.push((name, ratio(n, c as f64)));
    }

    let profiled_wall: f64 = out.iters.iter().filter(|i| i.profiled).map(|i| i.wall_s).sum();
    let span_self: f64 = out.tracer.self_times().iter().map(|(_, s)| s).sum();
    v.push(("profile.span_coverage", ratio(span_self, profiled_wall)));
    in_order(&PER_LAYER, v)
}

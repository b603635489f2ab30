//! # mbbench — cold-boot simulation-speed benchmark
//!
//! Measures the paper's metric, simulated cycles per host second over a
//! uClinux boot (§2, Fig. 2), on whole **cold** boots from reset, long
//! enough to beat host noise, and splits the host time layer by layer in
//! a separate profile run. Every performance change to the simulator is
//! judged by this benchmark.
//!
//! ## Commands
//!
//! From the repository root (the benchmark is a package of its own; it
//! takes the simulator crates by path):
//!
//! ```text
//! B="cargo run --release --offline --manifest-path crates/bench/src/bin/mbbench/Cargo.toml --"
//! $B --workload boot_accurate --seed 1 --seconds 20 --trace 0   # end-to-end metrics
//! $B --workload boot_accurate --seed 1 --seconds 20 --trace 1   # profile run: per-layer metrics
//! $B --workload ckpt_fork --seed 7 --profile spans.json         # profile run, spans saved
//! $B compare runs/parent runs/change                            # verdicts, see `compare`
//! $B self-check                                                 # --scale 1 determinism rows
//! cargo test --release --manifest-path crates/bench/src/bin/mbbench/Cargo.toml
//! ```
//!
//! One run measures one workload in one process, on one thread. It sets
//! the workload up 21 times back to back (`setup_s` is their median),
//! runs one untimed warm-up iteration, then starts iterations until
//! `--seconds` have passed: a closed loop, one client, each iteration
//! starting when the previous one ends. Every iteration, the warm-up
//! included, checks its simulated results against goldens pinned in
//! `workloads.rs` (and mirrored in `BENCHMARK.json`). Standard output is
//! one header line (`mbbench: workload=... seed=...`, the record
//! `compare` reads) and, as the last line, the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A run whose goldens do not match exits 1; a usage or set-up error
//! exits 2 without a result line.
//!
//! ## Workloads
//!
//! Host times are from a 2-core AMD EPYC virtual machine.
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `boot_accurate` | cold boots (reset → `DONE_MARKER`) of rung 6 "Red. scheduling" at scale 4: 2,878,424 cycles, ≈1.4 s each | The fastest cycle-accurate rung: pin-accurate OPB and 14 kernel activations per cycle. `sysc` and the OPB process bodies do most of the work; the ISS and DMI almost none. |
//! | `boot_dmi` | cold boots of rung 11 "DMI backdoor" at scale 16: 1,962,041 cycles, ≈0.65 s each | The fastest rung. Bus processes are parked (4.3 activations per cycle); the ISS and the `platform::access` DMI tier dominate, kernel per-activation cost matters little. |
//! | `boot_traced` | cold boots of rung 1 "Initial model /w trace" at scale 1: 743,288 cycles, ≈0.8 s each, each writing a 48 MB VCD that is hashed, then deleted | Resolved wires and VCD output (the paper's A1 row): the same `sysc` layer used differently, through update commit on `Rv` signals and the VCD writer. A kernel change that helps `boot_accurate` but costs traced runs shows here. |
//! | `ckpt_fork` | rounds on rung 11 at scale 4 with the reconfiguration phase (499,749 cycles, ≈0.55 s a round): one cold boot that snapshots at all 11 markers (phases 1–10 and `RECONFIG_MARKER`), then 11 forks, each building a fresh platform, restoring one snapshot and running to the next marker | The checkpoint layer does about a third of the work here and none in the boot workloads. Saves sit beside restores; restore and the phase-11 HWICAP load revoke DMI grants, which are then earned again. |
//!
//! `--seed` is required and recorded. The boot workloads are fully
//! deterministic, so for them the seed changes nothing; in `ckpt_fork`
//! it sets the fork order of every round.
//!
//! ## End-to-end metrics
//!
//! Measured with profiling off. Times are host time; cycles are
//! simulated. An *operation* is one boot in the boot workloads and one
//! fork in `ckpt_fork`.
//!
//! | metric | meaning | better | bound |
//! |---|---|---|---|
//! | `sim_cps` | median over iterations of simulated cycles per host second inside the `run_until_gpio` calls, whole boot from reset (the paper's bar; in `ckpt_fork` the cold boot plus the forks' runs) | higher | 5 % |
//! | `setup_s` | median of the back-to-back set-ups: `Boot::build` plus platform build and image load (set-ups inside iterations follow a boot that evicted the caches and run about twice as slow, so they count only in `op_ms_*`) | lower | 25 % (it is ≈0.2 ms) |
//! | `peak_rss_mb` | `VmHWM` of the process once the first measured iteration has ended, so it covers a fixed amount of work: the process grows by ≈6.6 MB per `ckpt_fork` round, mostly because a platform built with the reconfiguration subsystem is not freed when dropped (≈0.3 MB each) | lower | 10 % |
//! | `ops_per_s` | median over iterations of operations per host second, everything included (in `ckpt_fork`: forks per second of a round, its cold boot and saves included) | higher | 5 % |
//! | `op_ms_p50` | median operation latency (boot: set-up, run, verify, tear-down; fork: build, restore, run to the next marker, verify) | lower | 10 % |
//! | `op_ms_p95` | nearest-rank 95th percentile of the same. A round's 11 forks are 11 equal-weight latency modes (0.7k to 193k cycles), so the 90th percentile sits on the upper tail of the second-slowest mode and wandered by 5 % between runs, while the 95th sits mid-way through the slowest mode; 20 s give ≈40 rounds, so ≈20 forks lie beyond it. The boot workloads' boots are alike and few (14–31 a run), so there it reads as the slowest boot and carries host noise: its spread over ten runs reached 4.9 %, hence the wider bound | lower | 20 % |
//!
//! Failures are not a metric: a metric that reads 0 on every good run
//! has no relative bound. They are the result line's `failed` out of
//! `attempted` (boots; cold boots plus forks), and a golden mismatch, a
//! missed marker or a typed checkpoint error each fail one operation.
//!
//! ## Layers → metrics → workloads
//!
//! The profile run (`--trace 1`, or `--profile PATH` to also save the
//! spans) alternates unprofiled and profiled iterations; a profiled one
//! enables the kernel probe (in `ckpt_fork` on the cold boot only, whose
//! activations are the ones read) and records spans (name, start, end, parent,
//! iteration) around every call into a layer, in memory, written out
//! when the run ends. Times below come from the unprofiled iterations,
//! process activations from the profiled ones, and counts are identical
//! in both (a test checks). Layer names follow the crates.
//!
//! | metric(s) | measured by | should move | on | and not on |
//! |---|---|---|---|---|
//! | `sysc.{act,delta,update,timed}_per_cycle` | `Simulator::stats()` deltas around the run calls | `sim_cps` | `boot_accurate`, `boot_traced` | `ckpt_fork` save time |
//! | `sysc.floor_ns_per_{act,update,delta}` | synthetic designs on the `sysc` API (the `kernel_primitives` shapes) | `sim_cps` | `boot_accurate` | `boot_dmi` (barely) |
//! | `sysc.vcd.bytes_per_cycle`, `sysc.vcd.write_mb_per_s` | VCD size ÷ cycles, and ÷ run time | `sim_cps` | `boot_traced` | the others (0 there) |
//! | `microblaze.insn_per_cycle`, `microblaze.floor_ns_per_insn` | `instructions() / cycles()`; `Cpu::step` on a `FlatRam` mixed loop | `sim_cps` | `boot_dmi` | `boot_accurate` |
//! | `platform.access.{dmi_hit_share,dispatcher_share,opb_xfer_per_kcycle,arb_conflict_per_kcycle,dmi_invalidations}` | `Counters` deltas (invalidations per iteration) | `sim_cps` | `boot_dmi`, `ckpt_fork` | `boot_accurate` (DMI off) |
//! | `platform.proc.{clock,cpu,opb,slave,uart,timer,intc,sync,region,other}.act_per_cycle` | probe `ProcNode.activations` grouped by process name | `sim_cps` | `boot_accurate` | `boot_dmi` |
//! | `checkpoint.{save_ms,restore_ms,blob_kb}` | timed `checkpoint` / `restore` calls (profiled boots save the finished boot and restore it onto a fresh platform) | `ops_per_s`, `op_ms_p95` | `ckpt_fork` | every `boot_*` workload |
//! | `workload.build_ms`, `platform.build_ms` | timed set-up calls | `setup_s` | all | — |
//! | `phase.{1..10}.ns_per_cycle` | host ns per simulated cycle in each boot phase (the paper's 10-phase protocol, made visible); `ckpt_fork`'s reconfiguration phase counts into phase 10, which it ends the boot in place of | `sim_cps` | all | — |
//! | `host.ns_per_cycle`, `est.sysc_share`, `est.microblaze_share` | floor × count per cycle ÷ host ns per cycle: which layer dominates | — | all | — |
//! | `profile.overhead`, `profile.span_coverage` | unprofiled ÷ profiled `sim_cps`, the kernel probe's cost (measured 1.02–1.06); span self-times ÷ profiled wall time (≥ 0.9999 measured) | — | all | — |
//!
//! ## Limits
//!
//! * The model is not validated against hardware, so no accuracy figure
//!   is given; the goldens pin the model's own results.
//! * Absolute kHz are not comparable to the paper's: a different host, a
//!   synthetic boot workload.
//! * `fig2`, `BENCH_fig2.json` and the RTL rung are unchanged and out of
//!   scope.

mod compare;
mod floors;
mod json;
mod metrics;
mod profile;
mod report;
mod workloads;

use json::{num, quote};
use metrics::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{golden, RunConfig, RunOutput, Workload};

const USAGE: &str = "usage: mbbench --workload NAME --seed N [--seconds S] [--trace 0|1] \
                     [--profile PATH]\n       mbbench compare A_DIR B_DIR\n       mbbench self-check\n\
                     workloads: boot_accurate boot_dmi boot_traced ckpt_fork";

/// Back-to-back set-ups before the warm-up; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Host seconds each floor measures for in the profile run.
const FLOOR_SECS: f64 = 0.5;

/// `--seconds` when not given (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    profile: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut profile) =
        (None, None, DEFAULT_SECONDS, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let next = it.next();
        let value = || next.ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--profile" => profile = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        profile,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("self-check") => workloads::self_check().map(|report| {
            println!("{report}self-check ok");
            true
        }),
        _ => parse_args(&args).map_err(|e| format!("{e}\n{USAGE}")).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mbbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn config(w: Workload, seed: u64, seconds: f64, profile: bool) -> RunConfig {
    RunConfig {
        workload: w,
        seed,
        scale: w.scale(),
        seconds,
        max_iters: None,
        profile,
        setup_reps: SETUP_REPS,
        floor_secs: FLOOR_SECS,
        golden: golden(w, w.scale()).expect("every workload has goldens at its own scale"),
    }
}

/// One benchmark run; `Ok(false)` when a golden did not match.
fn run(a: &Args) -> Result<bool, String> {
    let cfg = config(a.workload, a.seed, a.seconds, a.trace || a.profile.is_some());
    let out = workloads::measure(&cfg)?;
    let metrics = if cfg.profile { report::per_layer(&out) } else { report::end_to_end(&out) };
    let (attempted, failed) = out.totals();
    for e in out.errors().take(5) {
        eprintln!("mbbench: failed: {e}");
    }
    if cfg.profile {
        eprintln!("span self time (profiled iterations):");
        for (name, secs) in out.tracer.self_times() {
            eprintln!("  {name:<22} {secs:>10.4} s");
        }
    }
    for (m, v) in &metrics {
        eprintln!("  {:<42} {:>18.6} {}", m.name, v, m.unit);
    }
    if let Some(path) = &a.profile {
        write_profile(path, &cfg, &out, &metrics)?;
    }
    println!(
        "mbbench: workload={} seed={} scale={} seconds={} trace={} iterations={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.seconds,
        u8::from(cfg.profile),
        out.iters.len()
    );
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// The result object the last line of standard output carries.
fn result_line(attempted: u64, failed: u64, metrics: &[(&Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(m.name), num(*v), quote(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Writes the profile run's spans, self times and metrics to `path`.
fn write_profile(
    path: &Path,
    cfg: &RunConfig,
    out: &RunOutput,
    metrics: &[(&Metric, f64)],
) -> Result<(), String> {
    let self_s: Vec<String> = out
        .tracer
        .self_times()
        .iter()
        .map(|(name, secs)| format!("{}: {}", quote(name), num(*secs)))
        .collect();
    let values: Vec<String> =
        metrics.iter().map(|(m, v)| format!("{}: {}", quote(m.name), num(*v))).collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": {},\n  \"iterations\": {},\n  \
         \"self_s\": {{{}}},\n  \"metrics\": {{{}}},\n  \"spans\": {}\n}}\n",
        quote(cfg.workload.name()),
        cfg.seed,
        cfg.scale,
        out.iters.len(),
        self_s.join(", "),
        values.join(", "),
        out.tracer.spans_json()
    );
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use metrics::{END_TO_END, PER_LAYER};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    /// A quick run: scale 1, `iters` measured iterations.
    fn quick(w: Workload, profile: bool, iters: usize) -> RunConfig {
        RunConfig {
            scale: 1,
            seconds: 0.0,
            max_iters: Some(iters),
            setup_reps: 1,
            floor_secs: 0.02,
            golden: golden(w, 1).expect("scale-1 goldens"),
            ..config(w, 5, 0.0, profile)
        }
    }

    /// Names and units of the printed result line, in order.
    fn printed(out: &RunOutput, metrics: &[(&Metric, f64)]) -> Vec<(String, String)> {
        let (attempted, failed) = out.totals();
        let line = Json::parse(&result_line(attempted, failed, metrics)).expect("valid JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        line.get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string()))
            .collect()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Smoke-runs `w` at scale 1 in both modes and checks the printed
    /// metrics against `BENCHMARK.json`, and that profiling leaves the
    /// simulated counts unchanged.
    fn smoke(w: Workload) {
        let out = workloads::measure(&quick(w, false, 1)).expect("runs");
        assert_eq!(out.totals().1, 0, "{:?}", out.errors().collect::<Vec<_>>());
        let e2e = report::end_to_end(&out);
        assert!(e2e.iter().all(|(_, v)| v.is_finite() && *v > 0.0), "{} {e2e:?}", w.name());
        assert_eq!(printed(&out, &e2e), declared("end_to_end"));

        let out = workloads::measure(&quick(w, true, 2)).expect("runs");
        assert_eq!(out.totals().1, 0, "{:?}", out.errors().collect::<Vec<_>>());
        let (plain, probed) = (&out.iters[0], &out.iters[1]);
        assert!(!plain.profiled && probed.profiled);
        assert_eq!(plain.meter.counts, probed.meter.counts, "profiling changed simulated counts");
        assert!(probed.proc_acts.is_some());
        let layers = report::per_layer(&out);
        assert!(layers.iter().all(|(_, v)| v.is_finite()));
        assert_eq!(printed(&out, &layers), declared("per_layer"));
    }

    #[test]
    fn smoke_boot_accurate() {
        smoke(Workload::BootAccurate);
    }

    #[test]
    fn smoke_boot_dmi() {
        smoke(Workload::BootDmi);
    }

    #[test]
    fn smoke_boot_traced_and_no_trace_left_behind() {
        smoke(Workload::BootTraced);
        assert!(!Path::new(".mbbench-scratch").exists(), "the VCD scratch directory remains");
    }

    #[test]
    fn smoke_ckpt_fork() {
        smoke(Workload::CkptFork);
    }

    #[test]
    fn a_wrong_golden_fails_every_operation() {
        for w in [Workload::BootAccurate, Workload::CkptFork] {
            let mut cfg = quick(w, false, 1);
            cfg.golden.cycles += 1;
            cfg.golden.markers.iter_mut().for_each(|c| *c += 1);
            let out = workloads::measure(&cfg).expect("runs");
            let (attempted, failed) = out.totals();
            assert!(attempted > 0 && failed == attempted, "{}: {failed}/{attempted}", w.name());
        }
    }

    #[test]
    fn self_check_reproduces_the_determinism_rows() {
        workloads::self_check().expect("rung 6 and 11 rows");
        assert_eq!(
            golden(Workload::BootAccurate, 1).map(|g| (g.cycles, g.instructions)),
            Some((743_288, 109_004))
        );
        assert_eq!(
            golden(Workload::BootDmi, 1).map(|g| (g.cycles, g.instructions)),
            Some((133_219, 110_641))
        );
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue_and_goldens() {
        let b = benchmark_json();
        let paths = b.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(paths, [Json::Str("crates/bench/src/bin/mbbench".into())]);
        assert_eq!(b.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let list = b.get(section).and_then(Json::as_array).unwrap();
            assert_eq!(list.len(), table.len(), "{section}");
            for (j, m) in list.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(j.get("better").and_then(Json::as_str), Some(m.better.as_str()));
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
        let listed = b.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), Workload::ALL.len());
        for (j, w) in listed.iter().zip(Workload::ALL) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name()));
            let why = j.get("why").and_then(Json::as_str).unwrap();
            let g = golden(w, w.scale()).unwrap();
            assert!(why.contains(&format!("{} cycles", g.cycles)), "{}: {why}", w.name());
            assert!(why.contains(&format!("{:#x}", g.digest)), "{}: {why}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&args("--workload ckpt_fork --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::CkptFork, 9, 3.0, true));
        assert!(parse_args(&args("--workload ckpt_fork")).is_err(), "the seed is required");
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload boot_dmi --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload boot_dmi --seed 1 --seconds -1")).is_err());
    }
}

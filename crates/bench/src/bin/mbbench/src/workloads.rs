//! The four workloads, their pinned goldens, and the closed loop that
//! runs them: one client, the next iteration starting when the previous
//! one ends.
//!
//! Every layer is timed from outside, around calls into its public
//! functions: `Boot::build`, `Platform::build` + `load_image`,
//! `Platform::run_until_gpio` per boot-phase marker,
//! `Platform::checkpoint` / `restore`, `Simulator::stats`,
//! `Platform::counters` and `Simulator::design_graph`.

use crate::floors::{self, Floors};
use crate::profile::Tracer;
use mbsim::{arch_digest, ModelKind};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sysc::{Native, Rv, WireFamily};
use vanillanet::{CaptureSymbols, ModelConfig, Platform};
use workload::{
    memcpy_cost, memset_cost, Boot, BootParams, DONE_MARKER, PHASE_COUNT, RECONFIG_MARKER,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold boots of rung 6 "Red. scheduling" at scale 4.
    BootAccurate,
    /// Cold boots of rung 11 "DMI backdoor" at scale 16.
    BootDmi,
    /// Cold boots of rung 1 "Initial model /w trace" at scale 1.
    BootTraced,
    /// Snapshot-and-fork rounds on rung 11 at scale 4 with the
    /// reconfiguration phase.
    CkptFork,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BootAccurate, Workload::BootDmi, Workload::BootTraced, Workload::CkptFork];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BootAccurate => "boot_accurate",
            Workload::BootDmi => "boot_dmi",
            Workload::BootTraced => "boot_traced",
            Workload::CkptFork => "ckpt_fork",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The ladder rung the workload boots.
    pub fn kind(self) -> ModelKind {
        match self {
            Workload::BootAccurate => ModelKind::ReducedScheduling,
            Workload::BootDmi | Workload::CkptFork => ModelKind::DmiBackdoor,
            Workload::BootTraced => ModelKind::InitialWithTrace,
        }
    }

    /// The workload scale the benchmark measures at.
    pub fn scale(self) -> u32 {
        match self {
            Workload::BootAccurate | Workload::CkptFork => 4,
            Workload::BootDmi => 16,
            Workload::BootTraced => 1,
        }
    }

    fn reconfig(self) -> bool {
        self == Workload::CkptFork
    }
}

/// The simulated results every iteration must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Cycles from reset to `DONE_MARKER`.
    pub cycles: u64,
    /// Retired instructions at `DONE_MARKER`.
    pub instructions: u64,
    /// `mbsim::arch_digest` of the final architectural state.
    pub digest: u64,
    /// `boot_traced`: VCD byte length and FNV-1a hash.
    pub vcd: Option<(u64, u64)>,
    /// `ckpt_fork`: the cold boot's cycle count at every marker (phases
    /// 1–10, `RECONFIG_MARKER`, `DONE_MARKER`).
    pub markers: Vec<u64>,
}

/// The pinned goldens for `workload` at `scale`: the measured scale,
/// and scale 1 for the quick smoke runs. `BENCHMARK.json` mirrors the
/// measured-scale rows.
pub fn golden(workload: Workload, scale: u32) -> Option<Golden> {
    let boot = |cycles, instructions, digest| Golden {
        cycles,
        instructions,
        digest,
        vcd: None,
        markers: Vec::new(),
    };
    Some(match (workload, scale) {
        (Workload::BootAccurate, 1) => boot(743_288, 109_004, 0xa49f_059b_d4c3_22cc),
        (Workload::BootAccurate, 4) => boot(2_878_424, 423_714, 0x6f03_6527_d857_d81f),
        (Workload::BootDmi, 1) => boot(133_219, 110_641, 0xb521_ac53_75c7_fa46),
        (Workload::BootDmi, 16) => boot(1_962_041, 1_672_543, 0x8921_f495_8f39_c92b),
        (Workload::BootTraced, 1) => Golden {
            vcd: Some((48_242_760, 0x532c_3555_7787_5376)),
            ..boot(743_288, 109_004, 0xa49f_059b_d4c3_22cc)
        },
        (Workload::CkptFork, 1) => Golden {
            markers: vec![
                11, 30_780, 49_226, 50_812, 57_676, 106_455, 107_870, 112_671, 125_611, 132_543,
                133_219, 134_015,
            ],
            ..boot(134_015, 111_070, 0x6478_2070_412e_5ad8)
        },
        (Workload::CkptFork, 4) => Golden {
            markers: vec![
                11, 123_066, 196_808, 198_394, 223_690, 416_470, 417_885, 422_686, 472_353,
                498_308, 498_984, 499_749,
            ],
            ..boot(499_749, 423_434, 0x24b6_1dc8_5f03_42ee)
        },
        _ => return None,
    })
}

/// Cycle budget of one `run_until_gpio` call, per unit of scale: far
/// above the longest phase of the slowest rung.
const RUN_BUDGET_PER_SCALE: u64 = 4_000_000;

/// Where traced boots write their VCD, relative to the working
/// directory. Each file is deleted once hashed and the directory when
/// the run ends, so nothing is left behind.
const SCRATCH_DIR: &str = ".mbbench-scratch";

/// The GPIO markers of one boot, in order. Reaching `markers[i]` ends
/// phase `i` (phase 0 is the reset stub before marker 1).
fn markers(reconfig: bool) -> Vec<u32> {
    (1..=PHASE_COUNT).chain(reconfig.then_some(RECONFIG_MARKER)).chain([DONE_MARKER]).collect()
}

/// Number of phase slots a meter keeps (reset stub, phases 1–10, and
/// the reconfiguration phase).
pub const PHASES: usize = PHASE_COUNT as usize + 2;

/// Kernel and platform counts, read before and after each run call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub instructions: u64,
    pub activations: u64,
    pub deltas: u64,
    pub updates: u64,
    pub timed_steps: u64,
    /// CPU-side accesses, whichever tier served them.
    pub accesses: u64,
    pub dmi_hits: u64,
    pub dispatcher: u64,
    pub opb_transfers: u64,
    pub arb_conflicts: u64,
    pub dmi_invalidations: u64,
}

impl Counts {
    fn take<F: WireFamily>(p: &Platform<F>) -> Counts {
        let s = p.sim().stats();
        let c = p.counters();
        let dispatcher = c.dispatcher_ifetches.get() + c.dispatcher_data.get();
        Counts {
            cycles: p.cycles(),
            instructions: p.instructions(),
            activations: s.activations,
            deltas: s.deltas,
            updates: s.updates,
            timed_steps: s.timed_steps,
            accesses: c.dmi_hits.get()
                + c.lmb_ifetches.get()
                + c.lmb_data.get()
                + dispatcher
                + c.opb_ifetches.get()
                + c.opb_data.get(),
            dmi_hits: c.dmi_hits.get(),
            dispatcher,
            opb_transfers: c.opb_transfers.get(),
            arb_conflicts: c.arb_conflicts.get(),
            dmi_invalidations: c.dmi_invalidations.get(),
        }
    }

    /// Field-wise `f(self, o)`.
    fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            cycles: f(self.cycles, o.cycles),
            instructions: f(self.instructions, o.instructions),
            activations: f(self.activations, o.activations),
            deltas: f(self.deltas, o.deltas),
            updates: f(self.updates, o.updates),
            timed_steps: f(self.timed_steps, o.timed_steps),
            accesses: f(self.accesses, o.accesses),
            dmi_hits: f(self.dmi_hits, o.dmi_hits),
            dispatcher: f(self.dispatcher, o.dispatcher),
            opb_transfers: f(self.opb_transfers, o.opb_transfers),
            arb_conflicts: f(self.arb_conflicts, o.arb_conflicts),
            dmi_invalidations: f(self.dmi_invalidations, o.dmi_invalidations),
        }
    }

    pub fn plus(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a + b)
    }
}

/// Totals over the run calls of one iteration.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    /// Host nanoseconds inside `run_until_gpio`.
    pub ns: f64,
    /// What those calls simulated.
    pub counts: Counts,
    pub phase_ns: [f64; PHASES],
    pub phase_cycles: [u64; PHASES],
}

impl Meter {
    /// Simulated cycles per host second inside the run calls.
    pub fn cps(&self) -> f64 {
        self.counts.cycles as f64 / (self.ns / 1e9)
    }
}

/// Host time of one set-up: `Boot::build`, then platform build and
/// image load.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub workload_s: f64,
    pub platform_s: f64,
}

impl Setup {
    pub fn total_s(self) -> f64 {
        self.workload_s + self.platform_s
    }
}

/// Process groups the profile run splits activations into, by process
/// name.
pub const PROC_GROUPS: [&str; 10] =
    ["clock", "cpu", "opb", "slave", "uart", "timer", "intc", "sync", "region", "other"];

/// The [`PROC_GROUPS`] index of the process named `name`.
pub fn proc_group(name: &str) -> usize {
    let starts = |p: &str| name.starts_with(p);
    let group = if starts("clk") {
        "clock"
    } else if name.ends_with(".decode") {
        // Before the device prefixes: "uart0.decode" is a slave.
        "slave"
    } else if starts("cpu.") {
        "cpu"
    } else if starts("opb.") {
        "opb"
    } else if starts("uart") {
        "uart"
    } else if starts("timer.") {
        "timer"
    } else if starts("intc.") || starts("irq.") {
        "intc"
    } else if starts("sync.") {
        "sync"
    } else if starts("reconf") || starts("hwicap") {
        "region"
    } else {
        "other"
    };
    PROC_GROUPS.iter().position(|g| *g == group).expect("every group is listed")
}

/// One measured iteration: a cold boot, or a `ckpt_fork` round.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Ran with the probe and spans on.
    pub profiled: bool,
    /// Host seconds of the whole iteration.
    pub wall_s: f64,
    pub meter: Meter,
    /// Latency of each operation: the boot, or each fork.
    pub op_ms: Vec<f64>,
    /// Operations attempted (boots, cold boots plus forks).
    pub attempted: u64,
    /// One message per failed operation.
    pub errors: Vec<String>,
    pub save_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub blob_bytes: Vec<f64>,
    pub vcd_bytes: u64,
    /// Profiled iterations: activations per [`PROC_GROUPS`] entry, and
    /// the cycles they were counted over.
    pub proc_acts: Option<([u64; PROC_GROUPS.len()], u64)>,
}

/// What one benchmark run configures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Drives the `ckpt_fork` fork order; the boot workloads are fully
    /// deterministic and ignore it.
    pub seed: u64,
    pub scale: u32,
    /// Start iterations until this much host time has passed.
    pub seconds: f64,
    /// Stop after this many measured iterations (tests).
    pub max_iters: Option<usize>,
    /// The profile run: alternate profiled and unprofiled iterations and
    /// measure the floors.
    pub profile: bool,
    /// Back-to-back set-ups before the warm-up, whose median is
    /// `setup_s`. Set-ups inside the iterations run right after a boot
    /// has evicted the caches, about twice as slow, so they count only
    /// towards operation latency.
    pub setup_reps: usize,
    /// Host seconds each floor measures for.
    pub floor_secs: f64,
    pub golden: Golden,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// The back-to-back set-ups.
    pub setups: Vec<Setup>,
    /// The untimed warm-up; its correctness still counts.
    pub warmup: Iteration,
    pub iters: Vec<Iteration>,
    /// `VmHWM` read once the first measured iteration has ended: after
    /// a fixed amount of work, whatever the run length (the process
    /// keeps growing while `ckpt_fork` runs).
    pub peak_rss_mb: f64,
    pub floors: Option<Floors>,
    pub tracer: Tracer,
}

impl RunOutput {
    /// `(attempted, failed)` operations, warm-up included.
    pub fn totals(&self) -> (u64, u64) {
        std::iter::once(&self.warmup)
            .chain(&self.iters)
            .fold((0, 0), |(a, f), it| (a + it.attempted, f + it.errors.len() as u64))
    }

    /// Every failure message, warm-up first.
    pub fn errors(&self) -> impl Iterator<Item = &String> {
        std::iter::once(&self.warmup).chain(&self.iters).flat_map(|it| it.errors.iter())
    }
}

/// Runs one benchmark: the extra set-ups, one untimed warm-up iteration,
/// then measured iterations until `cfg.seconds` have passed (at least
/// one profiled and one unprofiled in the profile run), then the floors
/// when profiling.
///
/// # Errors
///
/// Returns a message if the platform cannot be built at all.
pub fn measure(cfg: &RunConfig) -> Result<RunOutput, String> {
    if cfg.workload.kind().resolved_wires() {
        measure_with::<Rv>(cfg)
    } else {
        measure_with::<Native>(cfg)
    }
}

struct Ctx<'a> {
    cfg: &'a RunConfig,
    tracer: &'a Tracer,
    scratch: &'a Scratch,
    profiled: bool,
}

fn measure_with<F: WireFamily>(cfg: &RunConfig) -> Result<RunOutput, String> {
    let tracer = Tracer::new();
    let scratch = Scratch::new();
    let mut rng = SplitMix64(cfg.seed);
    let ctx = |profiled| Ctx { cfg, tracer: &tracer, scratch: &scratch, profiled };

    let mut setups = Vec::with_capacity(cfg.setup_reps);
    for _ in 0..cfg.setup_reps {
        setups.push(setup::<F>(&ctx(false))?.setup);
    }
    let warmup = iteration::<F>(&ctx(false), &mut rng);

    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let min_iters = if cfg.profile { 2 } else { 1 };
    let mut peak_rss_mb = 0.0;
    while iters.len() < cfg.max_iters.unwrap_or(usize::MAX)
        && (iters.len() < min_iters || start.elapsed().as_secs_f64() < cfg.seconds)
    {
        let profiled = cfg.profile && iters.len() % 2 == 1;
        tracer.set(profiled, iters.len() as u32);
        let it = iteration::<F>(&ctx(profiled), &mut rng);
        tracer.set(false, 0);
        iters.push(it);
        if iters.len() == 1 {
            peak_rss_mb = read_peak_rss_mb()?;
        }
    }
    let floors = cfg.profile.then(|| floors::measure(cfg.floor_secs));
    Ok(RunOutput { setups, warmup, iters, peak_rss_mb, floors, tracer })
}

/// The process's peak resident set size (`VmHWM`), MB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn iteration<F: WireFamily>(ctx: &Ctx, rng: &mut SplitMix64) -> Iteration {
    let start = Instant::now();
    let mut it = match ctx.cfg.workload {
        Workload::CkptFork => fork_round::<F>(ctx, rng),
        _ => boot_iteration::<F>(ctx),
    };
    it.wall_s = start.elapsed().as_secs_f64();
    it.profiled = ctx.profiled;
    it
}

/// A freshly set-up boot: the workload image, the platform with the
/// image loaded, and the VCD file it writes (traced rungs).
struct Built<F: WireFamily> {
    boot: Boot,
    // Dropped before `vcd`, so the trace file is closed before removal.
    p: Platform<F>,
    vcd: Option<TempFile>,
    setup: Setup,
}

fn setup<F: WireFamily>(ctx: &Ctx) -> Result<Built<F>, String> {
    let w = ctx.cfg.workload;
    let t0 = Instant::now();
    let boot = {
        let _s = ctx.tracer.span("workload.build");
        Boot::build(BootParams { scale: ctx.cfg.scale, reconfig: w.reconfig() })
    };
    let t1 = Instant::now();
    let vcd = if w.kind().traced() { Some(ctx.scratch.file()?) } else { None };
    let p = {
        let _s = ctx.tracer.span("platform.build");
        build_platform::<F>(w.kind(), &boot, vcd.as_ref().map(|f| f.0.as_path()))?
    };
    let setup =
        Setup { workload_s: (t1 - t0).as_secs_f64(), platform_s: t1.elapsed().as_secs_f64() };
    Ok(Built { boot, p, vcd, setup })
}

/// Builds rung `kind` for `boot` exactly as `mbsim::build_boot_sim`
/// does (same config, capture symbols and toggles), except that the VCD
/// path, when there is one, belongs to the benchmark, and the
/// reconfiguration subsystem is attached when the workload has its
/// phase.
pub fn build_platform<F: WireFamily>(
    kind: ModelKind,
    boot: &Boot,
    trace: Option<&Path>,
) -> Result<Platform<F>, String> {
    let config = ModelConfig {
        capture: Some(CaptureSymbols {
            memset: boot.memset,
            memcpy: boot.memcpy,
            memset_cost,
            memcpy_cost,
        }),
        reconfig: boot.params.reconfig,
        trace_path: trace.map(Path::to_path_buf),
        ..kind.model_config()
    };
    let p = Platform::<F>::build(&config).map_err(|e| format!("{kind}: platform build: {e}"))?;
    p.load_image(&boot.image);
    kind.apply_toggles(p.toggles());
    Ok(p)
}

/// Runs `p` to `marker` (the end of phase `phase`), metering the call.
fn run_to<F: WireFamily>(
    ctx: &Ctx,
    p: &Platform<F>,
    marker: u32,
    phase: usize,
    m: &mut Meter,
) -> Result<(), String> {
    let budget = RUN_BUDGET_PER_SCALE * u64::from(ctx.cfg.scale);
    let before = {
        let _s = ctx.tracer.span("stats");
        Counts::take(p)
    };
    let start = Instant::now();
    let reached = {
        let _s = ctx.tracer.span("run");
        p.run_until_gpio(marker, budget)
    };
    let ns = start.elapsed().as_nanos() as f64;
    let after = {
        let _s = ctx.tracer.span("stats");
        Counts::take(p)
    };
    m.ns += ns;
    m.counts = m.counts.plus(after.zip(before, |a, b| a - b));
    m.phase_ns[phase] += ns;
    m.phase_cycles[phase] += after.cycles - before.cycles;
    if reached {
        Ok(())
    } else {
        Err(format!("marker {marker:#x} not reached within {budget} cycles"))
    }
}

/// Checks the final boot result against the golden.
fn verify<F: WireFamily>(ctx: &Ctx, p: &Platform<F>) -> Result<(), String> {
    let _s = ctx.tracer.span("verify");
    let g = &ctx.cfg.golden;
    let got = (p.cycles(), p.instructions(), arch_digest(&p.snapshot()));
    if got == (g.cycles, g.instructions, g.digest) {
        Ok(())
    } else {
        Err(format!(
            "boot ended at {} cycles / {} instructions / digest {:#018x}, golden {} / {} / {:#018x}",
            got.0, got.1, got.2, g.cycles, g.instructions, g.digest
        ))
    }
}

fn expect_cycles(ctx: &Ctx, got: u64, index: usize) -> Result<(), String> {
    match ctx.cfg.golden.markers.get(index) {
        Some(&want) if want == got => Ok(()),
        want => Err(format!("at marker slot {index}: {got} cycles, golden {want:?}")),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn boot_iteration<F: WireFamily>(ctx: &Ctx) -> Iteration {
    let start = Instant::now();
    let mut it = Iteration { attempted: 1, ..Iteration::default() };
    match setup::<F>(ctx) {
        Ok(b) => {
            if ctx.profiled {
                b.p.sim().probe_enable();
            }
            if let Err(e) = boot_to_done(ctx, &b, &mut it) {
                it.errors.push(e);
            }
            let _s = ctx.tracer.span("platform.drop");
            drop(b);
        }
        Err(e) => it.errors.push(e),
    }
    it.op_ms.push(ms_since(start));
    it
}

fn boot_to_done<F: WireFamily>(ctx: &Ctx, b: &Built<F>, it: &mut Iteration) -> Result<(), String> {
    for (phase, &marker) in markers(b.boot.params.reconfig).iter().enumerate() {
        run_to(ctx, &b.p, marker, phase, &mut it.meter)?;
    }
    verify(ctx, &b.p)?;
    if let Some(vcd) = &b.vcd {
        let _s = ctx.tracer.span("vcd.hash");
        b.p.sim().flush_trace().map_err(|e| format!("VCD flush: {e}"))?;
        let (len, hash) = fnv1a_file(&vcd.0).map_err(|e| format!("VCD read: {e}"))?;
        it.vcd_bytes += len;
        if Some((len, hash)) != ctx.cfg.golden.vcd {
            return Err(format!(
                "VCD is {len} bytes, fnv1a {hash:#018x}; golden {:?}",
                ctx.cfg.golden.vcd
            ));
        }
    }
    if ctx.profiled {
        it.proc_acts = Some((proc_activations(ctx, &b.p), b.p.cycles()));
        checkpoint_probe(ctx, b, it)?;
    }
    Ok(())
}

/// Activations per process group since the probe was enabled.
fn proc_activations<F: WireFamily>(ctx: &Ctx, p: &Platform<F>) -> [u64; PROC_GROUPS.len()] {
    let _s = ctx.tracer.span("design_graph");
    let mut acts = [0u64; PROC_GROUPS.len()];
    for node in p.sim().design_graph().processes {
        acts[proc_group(&node.name)] += node.activations;
    }
    acts
}

/// Profiled boots also save the finished boot and restore it onto a
/// fresh platform, so the checkpoint layer has a cost on every rung.
fn checkpoint_probe<F: WireFamily>(
    ctx: &Ctx,
    b: &Built<F>,
    it: &mut Iteration,
) -> Result<(), String> {
    let t = Instant::now();
    let blob = {
        let _s = ctx.tracer.span("checkpoint.save");
        b.p.checkpoint(false).map_err(|e| format!("checkpoint: {e}"))?
    };
    it.save_ms.push(ms_since(t));
    it.blob_bytes.push(blob.len() as f64);
    let kind = ctx.cfg.workload.kind();
    let vcd = if kind.traced() { Some(ctx.scratch.file()?) } else { None };
    let q = {
        let _s = ctx.tracer.span("platform.build");
        build_platform::<F>(kind, &b.boot, vcd.as_ref().map(|f| f.0.as_path()))?
    };
    let t = Instant::now();
    {
        let _s = ctx.tracer.span("checkpoint.restore");
        q.restore(&blob).map_err(|e| format!("restore: {e}"))?;
    }
    it.restore_ms.push(ms_since(t));
    if q.cycles() != b.p.cycles() {
        return Err(format!("restored at cycle {}, saved at {}", q.cycles(), b.p.cycles()));
    }
    let _s = ctx.tracer.span("platform.drop");
    drop(q);
    drop(vcd);
    Ok(())
}

/// One `ckpt_fork` round: a cold boot that snapshots at every marker
/// but the last, then one fork per snapshot in seeded order.
fn fork_round<F: WireFamily>(ctx: &Ctx, rng: &mut SplitMix64) -> Iteration {
    let marks = markers(true);
    let snaps = marks.len() - 1;
    let mut it = Iteration { attempted: marks.len() as u64, ..Iteration::default() };
    let b = match setup::<F>(ctx) {
        Ok(b) => b,
        Err(e) => {
            it.errors = vec![e; marks.len()];
            return it;
        }
    };
    // Only the cold boot is probed: its activations are the ones the
    // profile reads, and a fork's restored kernel restarts them anyway.
    if ctx.profiled {
        b.p.sim().probe_enable();
    }
    let mut blobs: Vec<Option<Vec<u8>>> = vec![None; snaps];
    match cold_boot(ctx, &b, &marks, &mut blobs, &mut it) {
        Ok(()) if ctx.profiled => it.proc_acts = Some((proc_activations(ctx, &b.p), b.p.cycles())),
        Ok(()) => {}
        Err(e) => it.errors.push(format!("cold boot: {e}")),
    }
    let Built { boot, p, .. } = b;
    {
        let _s = ctx.tracer.span("platform.drop");
        drop(p);
    }

    let mut order: Vec<usize> = (0..snaps).collect();
    rng.shuffle(&mut order);
    for k in order {
        let start = Instant::now();
        let result = {
            let _s = ctx.tracer.span("fork");
            fork::<F>(ctx, &boot, &marks, k, blobs[k].as_deref(), &mut it)
        };
        it.op_ms.push(ms_since(start));
        if let Err(e) = result {
            it.errors.push(format!("fork from marker {:#x}: {e}", marks[k]));
        }
    }
    it
}

fn cold_boot<F: WireFamily>(
    ctx: &Ctx,
    b: &Built<F>,
    marks: &[u32],
    blobs: &mut [Option<Vec<u8>>],
    it: &mut Iteration,
) -> Result<(), String> {
    for (i, &marker) in marks.iter().enumerate() {
        run_to(ctx, &b.p, marker, i, &mut it.meter)?;
        expect_cycles(ctx, b.p.cycles(), i)?;
        if let Some(slot) = blobs.get_mut(i) {
            let t = Instant::now();
            let blob = {
                let _s = ctx.tracer.span("checkpoint.save");
                b.p.checkpoint(false).map_err(|e| format!("checkpoint: {e}"))?
            };
            it.save_ms.push(ms_since(t));
            it.blob_bytes.push(blob.len() as f64);
            *slot = Some(blob);
        }
    }
    verify(ctx, &b.p)
}

/// Builds a fresh platform, restores snapshot `k` and runs it to the
/// next marker, checking the cycle count on both sides against the cold
/// boot's golden.
fn fork<F: WireFamily>(
    ctx: &Ctx,
    boot: &Boot,
    marks: &[u32],
    k: usize,
    blob: Option<&[u8]>,
    it: &mut Iteration,
) -> Result<(), String> {
    let blob = blob.ok_or("no snapshot: the cold boot failed before this marker")?;
    let q = {
        let _s = ctx.tracer.span("platform.build");
        build_platform::<F>(ctx.cfg.workload.kind(), boot, None)?
    };
    let t = Instant::now();
    {
        let _s = ctx.tracer.span("checkpoint.restore");
        q.restore(blob).map_err(|e| format!("restore: {e}"))?;
    }
    it.restore_ms.push(ms_since(t));
    expect_cycles(ctx, q.cycles(), k)?;
    run_to(ctx, &q, marks[k + 1], k + 1, &mut it.meter)?;
    expect_cycles(ctx, q.cycles(), k + 1)?;
    if k + 2 == marks.len() {
        verify(ctx, &q)?;
    }
    let _s = ctx.tracer.span("platform.drop");
    drop(q);
    Ok(())
}

/// The `--scale 1` self-check: rungs 6 and 11 must reproduce the boot
/// cycle and instruction rows of `tests/determinism.rs`, both through
/// the benchmark's own platform builder and through
/// `mbsim::build_boot_sim`.
pub fn self_check() -> Result<String, String> {
    const ROWS: [(ModelKind, u64, u64); 2] = [
        (ModelKind::ReducedScheduling, 743_288, 109_004),
        (ModelKind::DmiBackdoor, 133_219, 110_641),
    ];
    let boot = Boot::build(BootParams { scale: 1, reconfig: false });
    let budget = RUN_BUDGET_PER_SCALE;
    let mut report = String::new();
    for (kind, cycles, instructions) in ROWS {
        let p = build_platform::<Native>(kind, &boot, None)?;
        let ours = (p.run_until_gpio(DONE_MARKER, budget), p.cycles(), p.instructions());
        let h = mbsim::build_boot_sim(kind, &boot).map_err(|e| e.to_string())?;
        let harness = (h.run_until_gpio(DONE_MARKER, budget), h.cycles(), h.instructions());
        let want = (true, cycles, instructions);
        if ours != want || harness != want {
            return Err(format!(
                "{kind}: bench {ours:?}, harness {harness:?}, tests/determinism.rs {want:?}"
            ));
        }
        if arch_digest(&p.snapshot()) != arch_digest(&h.arch_snapshot()) {
            return Err(format!("{kind}: bench and harness end in different states"));
        }
        report.push_str(&format!("{kind}: {cycles} cycles, {instructions} instructions\n"));
    }
    Ok(report)
}

/// The benchmark's scratch directory for VCD files.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch { dir: PathBuf::from(SCRATCH_DIR) }
    }

    /// A fresh file path, unique within the process (tests run
    /// workloads on parallel threads).
    fn file(&self) -> Result<TempFile, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Ok(TempFile(self.dir.join(format!("{}-{n}.vcd", std::process::id()))))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Fails while another thread still has a file in it; the last
        // one out removes it.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// A scratch file, removed when dropped.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Length and 64-bit FNV-1a hash of a file, read in chunks so a 48 MB
/// trace does not inflate the process's peak memory.
fn fnv1a_file(path: &Path) -> std::io::Result<(u64, u64)> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let (mut len, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok((len, h));
        }
        for &b in &buf[..n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        len += n as u64;
    }
}

/// The seeded generator for the fork order. Kept here rather than
/// borrowed from a library crate so that refactoring the code under test
/// cannot change the benchmark's inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

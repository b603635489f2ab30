//! Process machinery: methods, threads, wait states and the execution
//! context handed to process bodies.
//!
//! # Cost model (why threads are slower than methods)
//!
//! In SystemC an `SC_THREAD` owns a coroutine stack and every `wait()` is a
//! context switch, while an `SC_METHOD` is a plain function call. Stable
//! Rust has no stackful coroutines, so here a thread is a resumable closure
//! that *returns* its next wait ([`Next`]) and the kernel re-arms dynamic
//! sensitivity on every activation. A method is dispatched directly and
//! nearly always stays on its static sensitivity. The relative overhead —
//! thread activations do strictly more wait-state bookkeeping than method
//! activations — mirrors the asymmetry the paper measures in §4.3 (a ~2 %
//! whole-model effect when 3 of 17 processes are converted).

use crate::kernel::{EventId, KernelShared};
use crate::time::SimTime;

/// Identifies a registered process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub(crate) usize);

/// What a thread process does after the current activation; the analogue
/// of SystemC's `wait(...)` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run again in the next delta cycle (`wait(SC_ZERO_TIME)`).
    Delta,
    /// Run again on the *n*-th future trigger of the static sensitivity
    /// (`wait()` for `n == 1`; multicycle sleep for `n > 1`, §4.5.2).
    ///
    /// The kernel counts the swallowed triggers as they arrive, without
    /// queueing an activation for them. Triggers within one window — one
    /// delta cycle's evaluate and update phases, or the timed
    /// notifications of one time point — count once, as they would wake
    /// a waiting process once.
    Cycles(u32),
    /// Run again after a fixed simulated time (`wait(t)`); static
    /// sensitivity is ignored while parked.
    In(SimTime),
    /// Run again when `ev` next fires (`wait(ev)`); one-shot dynamic
    /// sensitivity.
    Event(EventId),
    /// Park on static sensitivity (for methods this is the default).
    Static,
    /// Terminate the process; it never runs again.
    Done,
}

/// Wait state of a parked process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Waiting on static sensitivity.
    Static,
    /// Parked on a timed resume; static triggers are ignored.
    DynTime,
    /// Parked on a one-shot event wait; static triggers are ignored.
    DynEvent,
    /// Terminated.
    Done,
}

pub(crate) enum Body {
    Method(Box<dyn FnMut(&mut Ctx)>),
    Thread(Box<dyn FnMut(&mut Ctx) -> Next>),
}

pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) kind: crate::probe::ProcKind,
    /// Evaluation phase within a delta cycle (see
    /// [`ProcBuilder::phase`](crate::ProcBuilder::phase)): lower phases
    /// run to completion before higher ones. Part of the determinism
    /// contract — processes in *different* phases have a defined order;
    /// processes in the *same* phase must be order-independent.
    pub(crate) phase: u8,
    pub(crate) body: Option<Body>,
    pub(crate) wait: Wait,
    /// Remaining static triggers to swallow (multicycle sleep), counted
    /// down as they arrive.
    pub(crate) skip: u32,
    /// Trigger window (see `WriteHub::window`) of the last static trigger
    /// counted against `skip`; later triggers in that window coalesce
    /// with it.
    pub(crate) counted_in: u64,
    /// Already queued for the next delta (dedup flag).
    pub(crate) scheduled: bool,
    /// Runtime lifecycle (DPR): live, suspended, or killed.
    pub(crate) life: crate::probe::LifeState,
    /// A trigger arrived while suspended; replayed (coalesced) on resume.
    pub(crate) woken_while_suspended: bool,
    /// Driver-release hooks run when the process is suspended or killed
    /// (see [`Simulator::release_on_park`](crate::Simulator::release_on_park)).
    pub(crate) park_hooks: Vec<std::rc::Rc<dyn Fn()>>,
    /// Body executions observed while the probe was on. Lives here (not in
    /// the probe state) because `run_process` already holds a mutable
    /// borrow of the slot — counting is then a plain increment.
    pub(crate) activations: u64,
    /// `true` if the process ever parked on a timed or event wait while
    /// the probe was on (dynamic sensitivity).
    pub(crate) used_dynamic_wait: bool,
    /// Set (by the process itself) while the component is bypassed by a
    /// faster modelling tier — e.g. a slave decode process descheduled
    /// because the transaction/DMI access tier serves its region
    /// directly. Lint detectors report bypassed-but-idle processes as
    /// advisory, not as dead.
    pub(crate) bypass_note: Option<&'static str>,
    /// `true` if this process was spawned while replaying a checkpoint's
    /// late-spawn log (restore-time late-spawn). Its zeroed activation
    /// history is an artefact of the restore, not of the design; lint
    /// detectors report it as advisory, mirroring the swapped-out
    /// convention.
    pub(crate) restored_spawn: bool,
}

/// Execution context passed to process bodies.
///
/// Gives access to the current time, simulation stop, event notification
/// and — for method processes — `next_trigger` rescheduling.
pub struct Ctx<'a> {
    k: &'a KernelShared,
    pid: ProcId,
    next_trigger: Option<Next>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("now", &self.now()).finish()
    }
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(k: &'a KernelShared, pid: ProcId) -> Self {
        Ctx { k, pid, next_trigger: None }
    }

    pub(crate) fn take_next_trigger(&mut self) -> Option<Next> {
        self.next_trigger.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.now.get()
    }

    /// Requests the simulation to stop at the end of this delta cycle.
    pub fn stop(&self) {
        self.k.stop.set(true);
    }

    /// Notifies `ev` with delta semantics (subscribers run next delta).
    pub fn notify(&self, ev: EventId) {
        self.k.notify_now(ev);
    }

    /// Notifies `ev` after `after` simulated time.
    pub fn notify_after(&self, ev: EventId, after: SimTime) {
        self.k.schedule_timed_notify(after, ev);
    }

    /// For method processes: swallow the next `n - 1` triggers, running
    /// again on the *n*-th — SystemC's `next_trigger(n × clock period)`
    /// idiom, the multicycle-sleep optimisation of §4.5.2.
    ///
    /// Ignored by thread processes (their returned [`Next`] wins).
    pub fn next_trigger_cycles(&mut self, n: u32) {
        self.next_trigger = Some(Next::Cycles(n));
    }

    /// For method processes: ignore static sensitivity and run again after
    /// `t` (`next_trigger(t)`).
    pub fn next_trigger_in(&mut self, t: SimTime) {
        self.next_trigger = Some(Next::In(t));
    }

    /// For method processes: never run again (`next_trigger()` on a
    /// terminated FSM).
    pub fn next_trigger_never(&mut self) {
        self.next_trigger = Some(Next::Done);
    }

    /// Marks (or, with `None`, unmarks) the *current* process as
    /// bypassed by a faster modelling tier, with a short reason shown by
    /// lint reports. A descheduled component calls this as it goes to
    /// sleep — e.g. an OPB slave decode process whose region the
    /// transaction/DMI access tier serves directly — so design-lint
    /// treats its inactivity as expected rather than dead
    /// (`DesignGraph`'s [`ProcNode::bypassed`](crate::ProcNode)).
    ///
    /// Safe to call from inside the process body: the kernel takes the
    /// body out of the process table before running it, so the table is
    /// not borrowed during execution.
    pub fn set_bypass_note(&self, note: Option<&'static str>) {
        self.k.procs.borrow_mut()[self.pid.0].bypass_note = note;
    }
}

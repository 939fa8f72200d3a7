//! The deterministic virtual-time scheduler.
//!
//! # Execution model
//!
//! Agents are imperative routines (host threads, persistent-kernel thread
//! blocks, stream workers, …) written as ordinary Rust closures against
//! [`AgentCtx`](crate::agent::AgentCtx). Every agent of a run executes on
//! the thread that called [`Engine::run`], each on a stack of its own
//! (mapped at the agent's first resume, unmapped as soon as it finishes;
//! see `stack.rs`), and **exactly one agent runs at a time**: the one
//! holding the scheduling token. There is no scheduler loop of its own. An
//! agent that blocks applies its own request and runs the event queue
//! itself (the dispatcher) until it reaches the next resume: its own
//! resume costs nothing, any other is a handoff — a switch straight to that
//! agent's stack. When the run ends, control switches back to the caller
//! of [`Engine::run`], which only started the first dispatch. The result is
//! a sequential, fully deterministic simulation in which agent code can
//! block (`advance`, `wait_flag`, `barrier`) with ordinary imperative
//! control flow — no hand written state machines, no async.
//!
//! No agent stack outlives `run`: on error, every parked agent is resumed
//! with the shutdown flag set and unwinds on its own stack before control
//! returns.
//!
//! # Determinism
//!
//! Runnable work is ordered by `(virtual_time, sequence_number)`, where the
//! sequence number increases monotonically with every enqueue. Two runs of
//! the same program therefore execute agents in the identical order and
//! produce identical virtual end times (and identical buffer contents in the
//! layers above).
//!
//! # Hot path
//!
//! The event queue is arena-allocated: the binary heap orders small
//! `(time, seq, slot)` keys while action payloads live in a slab whose
//! slots are recycled through a free list, so steady-state scheduling
//! performs no allocation. All names (agents, identities, span labels,
//! wait annotations) are interned [`Sym`]s; strings are materialized only
//! when a diagnostic or report is rendered.

use crate::agent::{AgentCtx, AgentId};
use crate::fault::mix64;
use crate::hb::{AsyncClock, HbTracker};
use crate::intern::{Label, Sym, SymPool};
use crate::lock::{Mutex, MutexGuard};
use crate::stack::{self, Context, Exit, Home, Stack};
use crate::sync::{Barrier, Cmp, Flag, SignalOp};
use crate::time::{SimDur, SimTime};
use crate::trace::{Trace, TraceSpan};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Errors surfaced by [`Engine::run`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// Live agents remain but none can ever run again.
    Deadlock {
        /// Virtual time at which progress stopped.
        time: SimTime,
        /// `name: blocked-on` diagnostics for every stuck agent.
        blocked: Vec<String>,
        /// Agent names forming a wait-for cycle, when the blocked agents'
        /// declared wait-for edges (see [`AgentCtx::wait_flag_from`]) close
        /// one; empty when no cycle could be established.
        cycle: Vec<String>,
    },
    /// An agent closure panicked.
    AgentPanic {
        /// Name of the panicking agent.
        agent: String,
        /// Rendered panic payload.
        message: String,
    },
    /// A deadline wait expired (or a watchdog diagnosed a stall) and the
    /// simulation was aborted with attribution.
    Timeout {
        /// Virtual time at which the timeout fired.
        time: SimTime,
        /// Name of the agent that timed out (or was diagnosed as stuck).
        agent: String,
        /// What the agent was waiting for.
        waiting_on: String,
        /// The deadline that expired.
        deadline: SimTime,
        /// Agent names forming a wait-for cycle at diagnosis time (empty
        /// when the stall is not a cyclic wait).
        cycle: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                time,
                blocked,
                cycle,
            } => {
                write!(f, "simulation deadlocked at {time}; blocked agents: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                if !cycle.is_empty() {
                    write!(f, "; wait-for cycle: {}", cycle.join(" -> "))?;
                }
                Ok(())
            }
            SimError::AgentPanic { agent, message } => {
                write!(f, "agent `{agent}` panicked: {message}")
            }
            SimError::Timeout {
                time,
                agent,
                waiting_on,
                deadline,
                cycle,
            } => {
                write!(
                    f,
                    "agent `{agent}` timed out at {time} (deadline {deadline}) waiting on {waiting_on}"
                )?;
                if !cycle.is_empty() {
                    write!(f, "; wait-for cycle: {}", cycle.join(" -> "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic snapshot of one blocked agent (for watchdogs).
#[derive(Debug, Clone)]
pub struct BlockedInfo {
    /// The agent's name.
    pub name: String,
    /// The agent's declared identity label (e.g. `"pe3"`), if any.
    pub identity: Option<String>,
    /// Human-readable description of what it is blocked on.
    pub blocked_on: String,
    /// Identity label of the peer it declared it is waiting for, if any.
    pub waiting_for: Option<String>,
}

/// Panic payload used by [`AgentCtx::abort`] to carry a structured
/// [`SimError`] out of an agent closure.
pub(crate) struct AbortSim(pub(crate) SimError);

/// What a blocking agent asks for; applied on its own stack before it
/// dispatches.
pub(crate) enum Request {
    /// Charge virtual time, resume at `now + dur`.
    Advance(SimDur),
    /// Block until the flag satisfies `cmp value`, optionally bounded by a
    /// virtual-time deadline and annotated with the identity of the peer the
    /// agent expects the signal from (wait-for-graph edge).
    WaitFlag {
        flag: Flag,
        cmp: Cmp,
        value: u64,
        deadline: Option<SimTime>,
        expected_from: Option<Sym>,
    },
    /// Block on an N-party barrier, optionally bounded by a deadline.
    Barrier {
        barrier: Barrier,
        deadline: Option<SimTime>,
    },
    /// Resume after other same-time work.
    Yield,
}

/// A queue entry: something that happens at a virtual time.
enum Action {
    Resume(AgentId),
    Signal {
        flag: Flag,
        op: SignalOp,
        value: u64,
        /// Happens-before stamp the delivery carries (present only when the
        /// HB tracker is enabled at issue time).
        stamp: Option<AsyncClock>,
    },
    /// Run a side-effect closure (e.g. materialize DMA data at completion
    /// time). Executed by the dispatcher on whichever stack holds the
    /// token, outside the engine lock; the closure must not call back into
    /// the engine. A panic in it is carried to the caller of
    /// [`Engine::run`] and resumed there.
    Call(Box<dyn FnOnce() + Send>),
    /// A deadline for a bounded wait. Stale once the agent's wait epoch has
    /// moved on (the wait completed first); stale fires are skipped WITHOUT
    /// advancing the clock so unexpired deadlines never distort end times.
    TimeoutFire {
        agent: AgentId,
        epoch: u64,
    },
}

/// What a blocked agent is parked on. Doubles as the "blocked on"
/// diagnostic via `Display`, replacing the `format!` that used to allocate
/// on every blocking wait — the description is rendered only when a
/// deadlock/timeout/watchdog actually looks.
#[derive(Clone, Copy)]
enum BlockedOn {
    Flag { flag: Flag, cmp: Cmp, value: u64 },
    Barrier(Barrier),
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedOn::Flag { flag, cmp, value } => {
                write!(f, "flag #{} {:?} {}", flag.0, cmp, value)
            }
            BlockedOn::Barrier(b) => write!(f, "barrier #{}", b.0),
        }
    }
}

/// Heap key for the arena'd event queue: 20 bytes of ordering data. The
/// action payload lives in the slab at `slot`, so heap sift operations move
/// small keys instead of whole `Action`s (which embed clocks and boxed
/// closures).
#[derive(PartialEq, Eq)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    // Reversed: BinaryHeap is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// How a dispatch that hands the token back to [`Engine::drive`] ended.
enum Outcome {
    /// The run is over, or an agent failed.
    Status(Result<(), SimError>),
    /// A `Call` closure panicked; the payload is resumed by the run caller.
    CallPanic(Box<dyn Any + Send>),
}

/// An agent's closure, kept until its first resume.
type AgentFn = Box<dyn FnOnce(&mut AgentCtx) + Send>;

struct FlagState {
    value: u64,
    waiters: Vec<(AgentId, Cmp, u64)>,
}

struct BarrierState {
    parties: usize,
    waiting: Vec<AgentId>,
}

struct AgentSlot {
    name: Sym,
    /// The closure, until the agent first runs.
    start: Option<AgentFn>,
    /// The agent's stack, from its first resume until it finishes.
    stack: Option<Stack>,
    alive: bool,
    /// Logical identity (e.g. `"pe2"`) used as the node label in the
    /// wait-for graph. Set via [`AgentCtx::set_identity`].
    identity: Option<Sym>,
    /// Identity of the peer this agent declared it is waiting for
    /// (wait-for-graph edge); cleared when the wait completes.
    waiting_for: Option<Sym>,
    /// The flag/barrier the agent is currently parked on, if any. Also the
    /// source of the human-readable "blocked on" description.
    wait_target: Option<BlockedOn>,
    /// Bumped on every blocking wait; guards [`Action::TimeoutFire`]
    /// staleness.
    wait_epoch: u64,
    /// Set by a fired timeout; consumed by the agent when it resumes.
    timed_out: bool,
}

pub(crate) struct Central {
    pub(crate) clock: SimTime,
    pub(crate) shutdown: bool,
    seq: u64,
    /// Ordering keys; payloads live in `slab`.
    queue: BinaryHeap<HeapKey>,
    /// Arena of pending actions, indexed by `HeapKey::slot`.
    slab: Vec<Option<Action>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Total events popped from the queue (the engine's throughput unit).
    events: u64,
    flags: Vec<FlagState>,
    barriers: Vec<BarrierState>,
    agents: Vec<AgentSlot>,
    /// Identity label -> agent indices that declared it, in registration
    /// order. Maintained incrementally by [`Central::set_identity`] so
    /// wait-cycle detection never rebuilds a map from scratch.
    by_identity: HashMap<Sym, Vec<usize>>,
    live_agents: usize,
    /// The context of the caller of the run in progress, resumed when the
    /// run ends.
    caller: Option<Context>,
    /// Left for the run caller by the dispatch that ended the run.
    outcome: Option<Outcome>,
    /// Switches from one agent's stack to another's (see
    /// [`Engine::handoffs`]).
    handoffs: u64,
    pub(crate) trace: Trace,
    trace_enabled: bool,
    /// Shared with [`Shared::pool`]; lets lock-holding diagnostics resolve
    /// names without reaching outside `Central`.
    pool: Arc<SymPool>,
    /// Happens-before tracker; `None` (the default) records nothing.
    pub(crate) hb: Option<Arc<HbTracker>>,
    /// Seed for the wake-order perturbation; `None` keeps FIFO tie-breaks.
    jitter: Option<u64>,
    /// Draw counter for the jitter stream (advances per permutation step).
    jitter_ctr: u64,
}

impl Central {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn push(&mut self, time: SimTime, action: Action) {
        let seq = self.next_seq();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(action);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Some(action));
                s
            }
        };
        self.queue.push(HeapKey { time, seq, slot });
    }

    /// Pop the earliest event, returning its time and payload. The slab
    /// slot is recycled immediately.
    fn pop_event(&mut self) -> Option<(SimTime, Action)> {
        let key = self.queue.pop()?;
        self.events += 1;
        let action = self.slab[key.slot as usize]
            .take()
            .expect("queued slab slot is empty");
        self.free.push(key.slot);
        Some((key.time, action))
    }

    /// `name: blocked-on` diagnostics for every live agent — the payload of
    /// a deadlock report.
    fn blocked_strings(&self) -> Vec<String> {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| match a.wait_target {
                Some(w) => format!("{}: {}", self.pool.resolve(a.name), w),
                None => format!("{}: (unknown wait)", self.pool.resolve(a.name)),
            })
            .collect()
    }

    /// Schedule a future signal application (e.g. a DMA completion).
    pub(crate) fn push_signal(
        &mut self,
        time: SimTime,
        flag: Flag,
        op: SignalOp,
        value: u64,
        stamp: Option<AsyncClock>,
    ) {
        self.push(
            time,
            Action::Signal {
                flag,
                op,
                value,
                stamp,
            },
        );
    }

    /// Schedule a future side-effect closure.
    pub(crate) fn push_call(&mut self, time: SimTime, f: Box<dyn FnOnce() + Send>) {
        self.push(time, Action::Call(f));
    }

    /// Apply a signal to a flag and make every now-satisfied waiter runnable.
    pub(crate) fn apply_signal(
        &mut self,
        flag: Flag,
        op: SignalOp,
        value: u64,
        at: SimTime,
        stamp: Option<AsyncClock>,
    ) {
        if let (Some(hb), Some(s)) = (&self.hb, &stamp) {
            hb.on_signal_deliver(flag, s, at);
        }
        let state = &mut self.flags[flag.0];
        state.value = op.apply(state.value, value);
        let val = state.value;
        let mut woken = Vec::new();
        state.waiters.retain(|&(agent, cmp, target)| {
            if cmp.eval(val, target) {
                woken.push(agent);
                false
            } else {
                true
            }
        });
        if let Some(hb) = &self.hb {
            for &agent in &woken {
                hb.on_wait_satisfied(agent, flag, at);
            }
        }
        self.permute_woken(&mut woken);
        for agent in woken {
            self.clear_wait(agent);
            self.push(at, Action::Resume(agent));
        }
    }

    /// Seeded Fisher–Yates permutation of a batch of simultaneously woken
    /// agents. The members of such a batch are mutually concurrent (all
    /// released by the same signal application or barrier arrival), so any
    /// relative wake order is a valid schedule — this is the perturbation
    /// lever used by the conformance harness. A no-op unless
    /// [`Engine::set_wake_jitter`] was called.
    fn permute_woken(&mut self, woken: &mut [AgentId]) {
        let Some(seed) = self.jitter else { return };
        for i in (1..woken.len()).rev() {
            self.jitter_ctr += 1;
            let j = (mix64(seed ^ self.jitter_ctr) % (i as u64 + 1)) as usize;
            woken.swap(i, j);
        }
    }

    /// Forget a completed (or cancelled) blocking wait.
    fn clear_wait(&mut self, agent: AgentId) {
        let slot = &mut self.agents[agent.0];
        slot.waiting_for = None;
        slot.wait_target = None;
    }

    /// Apply a blocking agent's request: queue its resume, or park it on a
    /// flag or barrier (with its deadline, if any).
    pub(crate) fn apply_request(&mut self, agent: AgentId, request: Request) {
        match request {
            Request::Advance(dur) => {
                let t = self.clock + dur;
                self.push(t, Action::Resume(agent));
            }
            Request::WaitFlag {
                flag,
                cmp,
                value,
                deadline,
                expected_from,
            } => {
                if cmp.eval(self.flags[flag.0].value, value) {
                    let t = self.clock;
                    if let Some(hb) = &self.hb {
                        hb.on_wait_satisfied(agent, flag, t);
                    }
                    self.push(t, Action::Resume(agent));
                } else {
                    let epoch = {
                        let slot = &mut self.agents[agent.0];
                        slot.waiting_for = expected_from;
                        slot.wait_target = Some(BlockedOn::Flag { flag, cmp, value });
                        slot.wait_epoch += 1;
                        slot.wait_epoch
                    };
                    self.flags[flag.0].waiters.push((agent, cmp, value));
                    if let Some(d) = deadline {
                        let d = d.max(self.clock);
                        self.push(d, Action::TimeoutFire { agent, epoch });
                    }
                }
            }
            Request::Barrier {
                barrier: b,
                deadline,
            } => {
                let epoch = {
                    let slot = &mut self.agents[agent.0];
                    slot.wait_target = Some(BlockedOn::Barrier(b));
                    slot.wait_epoch += 1;
                    slot.wait_epoch
                };
                self.barriers[b.0].waiting.push(agent);
                if self.barriers[b.0].waiting.len() == self.barriers[b.0].parties {
                    let t = self.clock;
                    let mut woken = std::mem::take(&mut self.barriers[b.0].waiting);
                    if let Some(hb) = &self.hb {
                        hb.on_barrier_release(&woken, b, t);
                    }
                    self.permute_woken(&mut woken);
                    for w in woken {
                        self.clear_wait(w);
                        self.push(t, Action::Resume(w));
                    }
                } else if let Some(d) = deadline {
                    let d = d.max(self.clock);
                    self.push(d, Action::TimeoutFire { agent, epoch });
                }
            }
            Request::Yield => {
                let t = self.clock;
                self.push(t, Action::Resume(agent));
            }
        }
    }

    /// A live deadline expires: cancel the agent's wait and resume it now.
    /// A stale one (the wait completed first) is dropped WITHOUT touching
    /// the clock, so it cannot distort end times.
    fn fire_timeout(&mut self, agent: AgentId, epoch: u64, time: SimTime) {
        let slot = &self.agents[agent.0];
        if !(slot.alive && slot.wait_epoch == epoch && slot.wait_target.is_some()) {
            return;
        }
        self.clock = time;
        match self.agents[agent.0].wait_target {
            Some(BlockedOn::Flag { flag, .. }) => {
                self.flags[flag.0].waiters.retain(|&(a, _, _)| a != agent);
            }
            Some(BlockedOn::Barrier(b)) => {
                self.barriers[b.0].waiting.retain(|&a| a != agent);
            }
            None => unreachable!("live timeout without wait target"),
        }
        self.clear_wait(agent);
        self.agents[agent.0].timed_out = true;
        self.push(time, Action::Resume(agent));
    }

    /// Why nothing is runnable: done or deadlocked.
    fn stop_status(&self) -> Result<(), SimError> {
        if self.live_agents == 0 {
            return Ok(());
        }
        Err(SimError::Deadlock {
            time: self.clock,
            blocked: self.blocked_strings(),
            cycle: self.wait_cycle(),
        })
    }

    /// The context that `next` (see [`dispatch`]) names: the run caller's
    /// for `None`, else the agent's, whose stack is mapped here at its first
    /// resume.
    fn context(&mut self, shared: &Arc<Shared>, next: Option<AgentId>) -> Context {
        let Some(id) = next else {
            return self.caller.expect("no run in progress");
        };
        let slot = &mut self.agents[id.0];
        let stack = slot.stack.get_or_insert_with(|| {
            let f = slot.start.take().expect("agent resumed after it finished");
            let shared = Arc::clone(shared);
            Stack::new(Box::new(move || run_agent(shared, id, f)))
        });
        stack.context()
    }

    /// Declare an agent's identity, keeping the `by_identity` index current.
    pub(crate) fn set_identity(&mut self, id: AgentId, identity: Sym) {
        let slot = &mut self.agents[id.0];
        if slot.identity == Some(identity) {
            return;
        }
        if let Some(old) = slot.identity.take() {
            if let Some(v) = self.by_identity.get_mut(&old) {
                v.retain(|&i| i != id.0);
            }
        }
        self.agents[id.0].identity = Some(identity);
        self.by_identity.entry(identity).or_default().push(id.0);
    }

    /// Consume the agent's timed-out marker (set by a fired deadline).
    pub(crate) fn take_timed_out(&mut self, id: AgentId) -> bool {
        std::mem::take(&mut self.agents[id.0].timed_out)
    }

    /// Snapshot of every live blocked agent, for watchdog diagnosis.
    pub(crate) fn blocked_snapshot(&self) -> Vec<BlockedInfo> {
        self.agents
            .iter()
            .filter(|a| a.alive && a.wait_target.is_some())
            .map(|a| BlockedInfo {
                name: self.pool.resolve(a.name).to_string(),
                identity: a.identity.map(|s| self.pool.resolve(s).to_string()),
                blocked_on: a.wait_target.map(|w| w.to_string()).unwrap_or_default(),
                waiting_for: a.waiting_for.map(|s| self.pool.resolve(s).to_string()),
            })
            .collect()
    }

    /// The live blocked agent currently holding `ident`, preferring the most
    /// recent registrant when several agents share an identity (a heuristic,
    /// fine for diagnostics).
    fn blocked_with_identity(&self, ident: Sym) -> Option<usize> {
        self.by_identity
            .get(&ident)?
            .iter()
            .rev()
            .copied()
            .find(|&i| matches!(&self.agents[i], a if a.alive && a.wait_target.is_some()))
    }

    /// Find a wait-for cycle among blocked agents, following the
    /// `waiting_for` edges declared via `expected_from` annotations. Edges
    /// point at identity labels, resolved through the incrementally
    /// maintained `by_identity` index. Returns the agent NAMES on the first
    /// cycle found, or an empty vector if the blocked set is acyclic /
    /// unannotated.
    pub(crate) fn wait_cycle(&self) -> Vec<String> {
        for (start, a) in self.agents.iter().enumerate() {
            if !(a.alive && a.wait_target.is_some()) {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut cur = start;
            loop {
                if let Some(pos) = path.iter().position(|&p| p == cur) {
                    return path[pos..]
                        .iter()
                        .map(|&p| self.pool.resolve(self.agents[p].name).to_string())
                        .collect();
                }
                path.push(cur);
                let Some(next_ident) = self.agents[cur].waiting_for else {
                    break;
                };
                let Some(next) = self.blocked_with_identity(next_ident) else {
                    break;
                };
                cur = next;
            }
        }
        Vec::new()
    }

    pub(crate) fn flag_value(&self, flag: Flag) -> u64 {
        self.flags[flag.0].value
    }

    pub(crate) fn new_flag(&mut self, init: u64) -> Flag {
        self.flags.push(FlagState {
            value: init,
            waiters: Vec::new(),
        });
        Flag(self.flags.len() - 1)
    }

    pub(crate) fn new_barrier(&mut self, parties: usize) -> Barrier {
        assert!(parties > 0, "barrier needs at least one party");
        self.barriers.push(BarrierState {
            parties,
            waiting: Vec::new(),
        });
        Barrier(self.barriers.len() - 1)
    }

    pub(crate) fn record_span(&mut self, span: TraceSpan) {
        if self.trace_enabled {
            self.trace.push(span);
        }
    }

    /// The agent's name, resolved from the pool (report paths only).
    pub(crate) fn agent_name(&self, id: AgentId) -> Arc<str> {
        self.pool.resolve(self.agents[id.0].name)
    }

    /// The agent's interned name (hot path: span recording).
    pub(crate) fn agent_name_sym(&self, id: AgentId) -> Sym {
        self.agents[id.0].name
    }
}

pub(crate) struct Shared {
    pub(crate) central: Mutex<Central>,
    /// The engine-wide symbol pool. Deliberately *outside* the central lock
    /// so agents intern labels without serializing on the token holder.
    pub(crate) pool: Arc<SymPool>,
}

/// The deterministic virtual-time discrete-event engine.
///
/// Typical use:
///
/// ```
/// use sim_des::{Engine, Cmp, SignalOp, us};
///
/// let engine = Engine::new();
/// let flag = engine.flag(0);
/// engine.spawn("producer", move |ctx| {
///     ctx.advance(us(5.0));
///     ctx.signal(flag, SignalOp::Set, 1);
/// });
/// engine.spawn("consumer", move |ctx| {
///     ctx.wait_flag(flag, Cmp::Ge, 1);
///     assert_eq!(ctx.now().as_micros_f64(), 5.0);
/// });
/// let end = engine.run().unwrap();
/// assert_eq!(end.as_micros_f64(), 5.0);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create an empty engine at virtual time zero.
    pub fn new() -> Self {
        let pool = Arc::new(SymPool::new());
        Engine {
            shared: Arc::new(Shared {
                central: Mutex::new(Central {
                    clock: SimTime::ZERO,
                    shutdown: false,
                    seq: 0,
                    queue: BinaryHeap::new(),
                    slab: Vec::new(),
                    free: Vec::new(),
                    events: 0,
                    flags: Vec::new(),
                    barriers: Vec::new(),
                    agents: Vec::new(),
                    by_identity: HashMap::new(),
                    live_agents: 0,
                    caller: None,
                    outcome: None,
                    handoffs: 0,
                    trace: Trace::with_pool(Arc::clone(&pool)),
                    trace_enabled: true,
                    pool: Arc::clone(&pool),
                    hb: None,
                    jitter: None,
                    jitter_ctr: 0,
                }),
                pool,
            }),
        }
    }

    /// Allocate a signal flag with an initial value.
    pub fn flag(&self, init: u64) -> Flag {
        self.shared.central.lock().new_flag(init)
    }

    /// Allocate a reusable N-party barrier.
    pub fn barrier(&self, parties: usize) -> Barrier {
        self.shared.central.lock().new_barrier(parties)
    }

    /// Current value of a flag (also usable after the run for inspection).
    pub fn flag_value(&self, flag: Flag) -> u64 {
        self.shared.central.lock().flag_value(flag)
    }

    /// Enable or disable span recording (enabled by default).
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.shared.central.lock().trace_enabled = enabled;
    }

    /// Clone the recorded trace (normally read after [`Engine::run`]).
    pub fn trace(&self) -> Trace {
        self.shared.central.lock().trace.clone()
    }

    /// Intern a string in the engine's symbol pool. Pre-intern hot labels
    /// once and pass the [`Sym`] to `busy`/`record` to keep the per-event
    /// path allocation-free.
    pub fn intern(&self, s: &str) -> Sym {
        self.shared.pool.intern(s)
    }

    /// The engine's symbol pool (shared with its trace).
    pub fn pool(&self) -> Arc<SymPool> {
        Arc::clone(&self.shared.pool)
    }

    /// Total events processed (queue pops) so far — the numerator of the
    /// engine's events/sec throughput metric.
    pub fn events_processed(&self) -> u64 {
        self.shared.central.lock().events
    }

    /// Handoffs so far: switches to another agent's stack, one per `Resume`
    /// of an agent other than the one dispatching. Like
    /// [`Engine::events_processed`] it is deterministic: a function of the
    /// event order alone.
    pub fn handoffs(&self) -> u64 {
        self.shared.central.lock().handoffs
    }

    /// Virtual time of the engine clock.
    pub fn now(&self) -> SimTime {
        self.shared.central.lock().clock
    }

    /// Snapshot of every live blocked agent (for watchdog diagnosis).
    pub fn blocked_agents(&self) -> Vec<BlockedInfo> {
        self.shared.central.lock().blocked_snapshot()
    }

    /// Current wait-for cycle among blocked agents, if any (agent names).
    pub fn wait_cycle(&self) -> Vec<String> {
        self.shared.central.lock().wait_cycle()
    }

    /// Spawn an agent, runnable at the current virtual time.
    ///
    /// Returns its id. The closure runs on a stack of its own, mapped at the
    /// agent's first resume, on the thread that calls [`Engine::run`]; only
    /// one agent runs at a time.
    pub fn spawn<'a, F>(&self, name: impl Into<Label<'a>>, f: F) -> AgentId
    where
        F: FnOnce(&mut AgentCtx) + Send + 'static,
    {
        let name = name.into().intern(&self.shared.pool);
        spawn_agent(&self.shared, name, None, f)
    }

    /// Enable happens-before tracking, creating the tracker on first call.
    ///
    /// Call before spawning agents so every synchronization edge is seen.
    /// Returns the (shared) tracker for recording memory effects and
    /// reading diagnostics. Tier-1 runs never call this, so the default
    /// cost is a skipped `Option` check per engine operation.
    pub fn enable_hb(&self) -> Arc<HbTracker> {
        let mut g = self.shared.central.lock();
        if g.hb.is_none() {
            let hb = HbTracker::with_pool(Arc::clone(&self.shared.pool));
            hb.name_agents(g.agents.iter().map(|a| a.name));
            g.hb = Some(Arc::new(hb));
        }
        Arc::clone(g.hb.as_ref().expect("just set"))
    }

    /// The happens-before tracker, if [`Engine::enable_hb`] was called.
    pub fn hb(&self) -> Option<Arc<HbTracker>> {
        self.shared.central.lock().hb.clone()
    }

    /// Seed the wake-order perturbation: batches of simultaneously woken
    /// agents (barrier releases, multi-waiter signal applications) are
    /// permuted by a deterministic seeded shuffle instead of FIFO order.
    ///
    /// Every permuted order is a valid schedule of the same program, so a
    /// correct protocol must produce bit-identical results under any seed —
    /// the property the conformance harness asserts. Unset (the default)
    /// keeps the historical FIFO tie-break.
    pub fn set_wake_jitter(&self, seed: u64) {
        self.shared.central.lock().jitter = Some(seed);
    }

    /// Drive the simulation until every agent has finished.
    ///
    /// Returns the final virtual time, or an error on deadlock / agent panic.
    /// On error the engine is shut down: every parked agent is unwound on
    /// its own stack and the stack unmapped, so no agent outlives `run`. A
    /// panic in a [`schedule_call`](AgentCtx::schedule_call) closure does
    /// the same shutdown, then unwinds out of `run` with the closure's own
    /// payload.
    pub fn run(&self) -> Result<SimTime, SimError> {
        match self.drive() {
            Ok(()) => Ok(self.now()),
            Err(e) => {
                self.shutdown();
                Err(e)
            }
        }
    }

    /// Run the first dispatch of a run on the caller's stack, and switch to
    /// the agent it resumes; control comes back here when the run ends.
    fn drive(&self) -> Result<(), SimError> {
        let home = Home::new();
        let mut g = self.shared.central.lock();
        g.caller = Some(home.context());
        let (g, next) = dispatch(&self.shared, g, None);
        let mut g = match next {
            None => g,
            Some(_) => {
                switch_to(&self.shared, g, home.context(), next);
                self.shared.central.lock()
            }
        };
        g.caller = None;
        let outcome = g.outcome.take().expect("run ended without an outcome");
        drop(g);
        match outcome {
            Outcome::Status(status) => status,
            Outcome::CallPanic(payload) => {
                self.shutdown();
                resume_unwind(payload)
            }
        }
    }

    /// Unwind every parked agent on its own stack, unmapping the stack, and
    /// drop the closures of agents that never ran.
    fn shutdown(&self) {
        let home = Home::new();
        let mut g = self.shared.central.lock();
        g.shutdown = true;
        g.caller = Some(home.context());
        while let Some(id) = g.agents.iter().position(|a| a.stack.is_some()) {
            switch_to(&self.shared, g, home.context(), Some(AgentId(id)));
            g = self.shared.central.lock();
        }
        g.caller = None;
        let unstarted: Vec<AgentFn> = g.agents.iter_mut().filter_map(|a| a.start.take()).collect();
        drop(g);
        drop(unstarted);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scheduler: run the event queue on the calling stack, whichever
/// context holds the token, until the next `Resume`.
///
/// `holder` is the agent whose stack is dispatching; `None` for the run
/// caller and for an agent that has finished. Returns the context to run
/// next: the agent to resume, or `None` when the run is over (nothing is
/// runnable, an agent failed or a `Call` panicked), with the outcome left
/// for the run caller. Resuming the holder costs no switch; resuming any
/// other agent counts one handoff.
pub(crate) fn dispatch<'a>(
    shared: &'a Shared,
    mut g: MutexGuard<'a, Central>,
    holder: Option<AgentId>,
) -> (MutexGuard<'a, Central>, Option<AgentId>) {
    let outcome = loop {
        let Some((time, action)) = g.pop_event() else {
            break Outcome::Status(g.stop_status());
        };
        // A deadline moves the clock only if it fires (see `fire_timeout`).
        if !matches!(action, Action::TimeoutFire { .. }) {
            debug_assert!(time >= g.clock, "time went backwards");
            g.clock = time;
        }
        match action {
            Action::TimeoutFire { agent, epoch } => g.fire_timeout(agent, epoch, time),
            Action::Signal {
                flag,
                op,
                value,
                stamp,
            } => g.apply_signal(flag, op, value, time, stamp),
            Action::Call(f) => {
                // Run outside the lock: the closure may take unrelated
                // locks (buffer mutexes) but must not re-enter the engine.
                drop(g);
                let result = catch_unwind(AssertUnwindSafe(f));
                g = shared.central.lock();
                if let Err(payload) = result {
                    break Outcome::CallPanic(payload);
                }
            }
            Action::Resume(agent) => {
                if holder != Some(agent) {
                    g.handoffs += 1;
                }
                return (g, Some(agent));
            }
        }
    };
    g.outcome = Some(outcome);
    (g, None)
}

/// Suspend the running context `from` and pass control to `next` (see
/// [`dispatch`]); returns when something switches back to `from`.
pub(crate) fn switch_to(
    shared: &Arc<Shared>,
    mut g: MutexGuard<'_, Central>,
    from: Context,
    next: Option<AgentId>,
) {
    let to = g.context(shared, next);
    drop(g);
    stack::switch(from, to);
}

/// Sentinel panic payload used to unwind agents during shutdown.
pub(crate) struct ShutdownUnwind;

pub(crate) fn spawn_agent<F>(
    shared: &Arc<Shared>,
    name: Sym,
    parent: Option<AgentId>,
    f: F,
) -> AgentId
where
    F: FnOnce(&mut AgentCtx) + Send + 'static,
{
    let mut g = shared.central.lock();
    let id = AgentId(g.agents.len());
    if let Some(hb) = &g.hb {
        hb.on_spawn(parent, id, name, g.clock);
    }
    g.agents.push(AgentSlot {
        name,
        start: Some(Box::new(f)),
        stack: None,
        alive: true,
        identity: None,
        waiting_for: None,
        wait_target: None,
        wait_epoch: 0,
        timed_out: false,
    });
    g.live_agents += 1;
    let t = g.clock;
    g.push(t, Action::Resume(id));
    id
}

/// The body of agent `id`'s stack: run `f`, then pass control on for good —
/// to the next agent the queue resumes, or to the run caller when the run
/// is over, the agent failed or it was unwound by [`Engine::shutdown`].
fn run_agent(shared: Arc<Shared>, id: AgentId, f: AgentFn) -> Exit {
    let own = shared.central.lock().agents[id.0]
        .stack
        .as_ref()
        .expect("a running agent has a stack")
        .context();
    let result = {
        let mut ctx = AgentCtx::new(Arc::clone(&shared), id, own);
        catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).map_err(|payload| {
            match payload.downcast::<AbortSim>() {
                Ok(abort) => Some(abort.0),
                // Engine-initiated unwind: the engine is already tearing
                // down and holds no expectations.
                Err(payload) if payload.is::<ShutdownUnwind>() => None,
                Err(payload) => Some(SimError::AgentPanic {
                    agent: ctx.name(),
                    message: render_panic(&*payload),
                }),
            }
        })
    };
    let mut g = shared.central.lock();
    let stack = g.agents[id.0]
        .stack
        .take()
        .expect("a running agent has a stack");
    // An agent unwound by shutdown stays listed as blocked where it was
    // parked, for the run's post-mortem (`Engine::blocked_agents`).
    if !matches!(result, Err(None)) {
        g.agents[id.0].alive = false;
        g.live_agents -= 1;
    }
    let (mut g, next) = match result {
        Ok(()) => dispatch(&shared, g, None),
        Err(Some(err)) => {
            g.outcome = Some(Outcome::Status(Err(err)));
            (g, None)
        }
        Err(None) => (g, None),
    };
    let to = g.context(&shared, next);
    (stack, to)
}

fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use std::process::Command;

    /// Only the engine itself still holds the shared state, and no agent
    /// stack is mapped: every agent (and its `AgentCtx`) is gone.
    fn assert_agents_gone(engine: &Engine) {
        assert_eq!(
            Arc::strong_count(&engine.shared),
            1,
            "an agent context leaked"
        );
        assert_eq!(stack::live_stacks(), 0, "an agent stack is still mapped");
    }

    /// Run the ignored test `name` of this binary in a child process.
    fn run_child(name: &str, backtrace: &str) -> std::process::Output {
        Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                name,
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("RUST_BACKTRACE", backtrace)
            .output()
            .expect("run the test binary")
    }

    #[test]
    fn one_agent_advancing_costs_one_handoff() {
        let engine = Engine::new();
        engine.spawn("solo", |ctx| {
            for _ in 0..1000 {
                ctx.advance(us(1.0));
            }
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(1000.0));
        assert_eq!(engine.events_processed(), 1001);
        // Only the first resume switches stacks; every later one is the
        // dispatching agent's own.
        assert_eq!(engine.handoffs(), 1);
    }

    #[test]
    fn ping_pong_costs_one_handoff_per_resume() {
        const ROUNDS: u64 = 50;
        let engine = Engine::new();
        let flag = engine.flag(0);
        engine.spawn("pong", move |ctx| {
            for i in 0..ROUNDS {
                ctx.wait_flag(flag, Cmp::Eq, 2 * i + 1);
                ctx.signal(flag, SignalOp::Set, 2 * i + 2);
            }
        });
        engine.spawn("ping", move |ctx| {
            for i in 0..ROUNDS {
                ctx.signal(flag, SignalOp::Set, 2 * i + 1);
                ctx.wait_flag(flag, Cmp::Eq, 2 * i + 2);
            }
        });
        engine.run().unwrap();
        // Each agent: its first resume plus one wake per round. Every
        // resume goes to the other agent, so each is one handoff.
        assert_eq!(engine.events_processed(), 2 * ROUNDS + 2);
        assert_eq!(engine.handoffs(), 2 * ROUNDS + 2);
    }

    #[test]
    fn call_panic_escapes_run_with_its_own_payload() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        engine.spawn("issuer", |ctx| {
            ctx.schedule_call(us(5.0), || panic!("call failed"));
            // The call falls due inside this agent's own dispatch.
            ctx.advance(us(10.0));
        });
        engine.spawn("bystander", move |ctx| {
            let _held = captured;
            ctx.wait_flag(flag, Cmp::Ge, 1);
        });
        let payload = catch_unwind(AssertUnwindSafe(|| engine.run()))
            .expect_err("the call's panic must escape Engine::run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"call failed"));
        assert_agents_gone(&engine);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the parked agent was not unwound"
        );
    }

    /// A finished agent's closure and captures are dropped as it finishes,
    /// and its stack is unmapped.
    #[test]
    fn ok_run_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        let held = Arc::new(());
        let child_held = Arc::clone(&held);
        engine.spawn("parent", move |ctx| {
            ctx.spawn("child", move |ctx| {
                let _held = child_held;
                ctx.advance(us(2.0));
                ctx.signal(flag, SignalOp::Set, 1);
            });
            ctx.wait_flag(flag, Cmp::Ge, 1);
        });
        engine.spawn("other", |ctx| ctx.advance(us(3.0)));
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(3.0));
        assert_agents_gone(&engine);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "a finished agent's captures were not dropped"
        );
    }

    /// On deadlock, the parked agent is unwound on its own stack (dropping
    /// its captures) and the stack unmapped.
    #[test]
    fn deadlocked_run_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        engine.spawn("finisher", |ctx| ctx.advance(us(1.0)));
        engine.spawn("stuck", move |ctx| {
            let _held = captured;
            ctx.wait_flag(flag, Cmp::Ge, 1);
        });
        assert!(matches!(engine.run(), Err(SimError::Deadlock { .. })));
        assert_agents_gone(&engine);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the parked agent was not unwound"
        );
    }

    #[test]
    fn agent_panic_mid_pass_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        engine.spawn("walker", |ctx| {
            for _ in 0..4 {
                ctx.advance(us(1.0));
            }
        });
        engine.spawn("boom", |ctx| {
            ctx.advance(us(1.5));
            panic!("boom");
        });
        engine.spawn("parked", move |ctx| {
            let _held = captured;
            ctx.wait_flag(flag, Cmp::Ge, 1);
        });
        match engine.run() {
            Err(SimError::AgentPanic { agent, message }) => {
                assert_eq!((agent.as_str(), message.as_str()), ("boom", "boom"));
            }
            other => panic!("expected the agent's panic, got {other:?}"),
        }
        // drive -> walker -> boom -> parked -> walker -> boom: `boom` panics
        // on a token `walker` passed it, with `walker` parked mid-handoff.
        assert_eq!(engine.handoffs(), 5);
        assert_agents_gone(&engine);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the parked agent was not unwound"
        );
    }

    #[test]
    fn dropping_an_engine_that_never_ran_maps_no_stack() {
        let held = Arc::new(());
        let engine = Engine::new();
        for i in 0..4 {
            let captured = Arc::clone(&held);
            engine.spawn(format!("idle{i}"), move |ctx| {
                let _held = captured;
                ctx.advance(us(1.0));
            });
        }
        assert_eq!(stack::live_stacks(), 0, "spawning mapped a stack");
        drop(engine);
        assert_eq!(stack::live_stacks(), 0);
        assert_eq!(Arc::strong_count(&held), 1, "an unstarted closure leaked");
    }

    /// Recurse until the frames below `top` span 1 MiB; returns the depth.
    fn recurse(top: usize) -> u64 {
        let frame = std::hint::black_box([0u8; 512]);
        let here = std::ptr::from_ref(&frame) as usize;
        if top - here >= 1 << 20 {
            return 1;
        }
        recurse(top) + 1 + u64::from(frame[511])
    }

    #[test]
    fn an_agent_recursing_through_a_mebibyte_completes() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        engine.spawn("deep", move |ctx| {
            ctx.advance(us(1.0));
            let top = 0u8;
            let depth = recurse(std::ptr::from_ref(&top) as usize);
            ctx.signal(flag, SignalOp::Set, depth);
        });
        engine.run().unwrap();
        assert!(engine.flag_value(flag) > 100);
        assert_agents_gone(&engine);
    }

    /// Run in a child process by `stack_overflow_kills_the_process`.
    #[test]
    #[ignore = "overflows an agent stack; run by stack_overflow_kills_the_process"]
    fn overflowing_agent() {
        #[allow(unconditional_recursion)]
        fn forever(depth: u64) -> u64 {
            let frame = std::hint::black_box([depth; 64]);
            forever(depth + 1) + frame[63]
        }
        let engine = Engine::new();
        engine.spawn("bottomless", |ctx| {
            ctx.advance(us(1.0));
            std::hint::black_box(forever(0));
        });
        let _ = engine.run();
        println!("overflowing agent returned");
    }

    #[test]
    fn stack_overflow_kills_the_process() {
        use std::os::unix::process::ExitStatusExt;
        let out = run_child("engine::tests::overflowing_agent", "0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.signal().is_some(),
            "the child was not killed by a signal: {:?}\n{stdout}",
            out.status
        );
        assert!(!stdout.contains("overflowing agent returned"));
    }

    /// Run in a child process by `agent_panic_with_backtrace_is_reported`.
    #[test]
    #[ignore = "panics an agent under RUST_BACKTRACE; run by agent_panic_with_backtrace_is_reported"]
    fn panicking_agent() {
        let engine = Engine::new();
        engine.spawn("doomed", |ctx| {
            ctx.advance(us(1.0));
            panic!("doomed agent");
        });
        match engine.run() {
            Err(SimError::AgentPanic { agent, message }) => {
                assert_eq!(
                    (agent.as_str(), message.as_str()),
                    ("doomed", "doomed agent")
                );
            }
            other => panic!("expected the agent's panic, got {other:?}"),
        }
        assert_agents_gone(&engine);
    }

    /// The panic hook's backtrace walks the agent stack down to its
    /// trampoline and stops there; the panic then surfaces as `AgentPanic`.
    #[test]
    fn agent_panic_with_backtrace_is_reported() {
        let out = run_child("engine::tests::panicking_agent", "1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{:?}\n{stderr}", out.status);
        assert!(stderr.contains("doomed agent"), "{stderr}");
        assert!(stderr.contains("stack backtrace"), "{stderr}");
    }

    /// Run in a child process by `handoff_on_a_foreign_thread_aborts`.
    #[test]
    #[ignore = "hands off from another thread; run by handoff_on_a_foreign_thread_aborts"]
    fn handoff_on_a_foreign_thread() {
        let engine = Engine::new();
        engine.spawn("other", |ctx| ctx.advance(us(1.0)));
        engine.spawn("mover", |ctx| {
            std::thread::scope(|s| {
                s.spawn(|| ctx.advance(us(2.0)));
            });
        });
        let _ = engine.run();
        println!("foreign handoff returned");
    }

    #[test]
    fn handoff_on_a_foreign_thread_aborts() {
        let out = run_child("engine::tests::handoff_on_a_foreign_thread", "0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{stderr}");
        assert!(
            stderr.contains("thread other than the one running its engine"),
            "{stderr}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("foreign handoff returned"));
    }

    /// Three agents passing a token around a ring of flags for 20 rounds,
    /// each hop 1 µs apart; returns the virtual end time.
    fn token_ring() -> SimTime {
        let engine = Engine::new();
        let flags: Vec<Flag> = (0..3).map(|_| engine.flag(0)).collect();
        for i in 0..3 {
            let (mine, next) = (flags[i], flags[(i + 1) % 3]);
            engine.spawn(format!("r{i}"), move |ctx| {
                for round in 0..20u64 {
                    if i > 0 || round > 0 {
                        ctx.wait_flag(mine, Cmp::Ge, round + u64::from(i == 0));
                    }
                    ctx.advance(us(1.0 + i as f64));
                    ctx.signal(next, SignalOp::Add, 1);
                }
            });
        }
        engine.run().unwrap()
    }

    #[test]
    fn nested_and_pooled_runs_match_a_run_alone() {
        let alone = token_ring();
        let outer = Engine::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let inner_got = Arc::clone(&got);
        outer.spawn("host", move |ctx| {
            ctx.advance(us(1.0));
            let inner = token_ring();
            ctx.advance(us(1.0));
            inner_got.lock().push(inner);
        });
        outer.spawn("bystander", |ctx| ctx.advance(us(5.0)));
        assert_eq!(outer.run().unwrap(), SimTime::ZERO + us(5.0));
        assert_eq!(*got.lock(), [alone]);
        let pooled = crate::par_map(2, (0..4).collect(), |_| token_ring());
        assert_eq!(pooled, [alone; 4]);
        assert_agents_gone(&outer);
    }
}

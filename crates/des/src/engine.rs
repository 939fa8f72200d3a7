//! The deterministic virtual-time scheduler.
//!
//! # Execution model
//!
//! Agents are imperative routines (host threads, persistent-kernel thread
//! blocks, stream workers, …) written as ordinary Rust closures against
//! [`AgentCtx`](crate::agent::AgentCtx). Each agent runs on its own OS thread,
//! but **exactly one thread is ever runnable at a time**: the one holding
//! the scheduling token. There is no scheduler thread in the loop. An agent
//! that blocks applies its own request and runs the event queue itself
//! (the dispatcher) until it reaches the next resume: its own resume costs
//! no thread switch, any other hands the token straight to that agent's
//! thread. The thread that called [`Engine::run`] only starts the first
//! dispatch and waits for the outcome. The result is a sequential, fully
//! deterministic simulation in which agent code can block (`advance`,
//! `wait_flag`, `barrier`) with ordinary imperative control flow — no hand
//! written state machines, no async.
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
use crate::lock::{Condvar, Mutex, MutexGuard};
use crate::sync::{Barrier, Cmp, Flag, SignalOp};
use crate::time::{SimDur, SimTime};
use crate::trace::{Trace, TraceSpan};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Outcome of a bounded [`Engine::run_until`] window.
///
/// Bounded runs never report deadlock: an empty queue with live agents is
/// indistinguishable from "waiting for a message an external coordinator
/// has not injected yet". The coordinator (see [`crate::shard`]) owns that
/// judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every agent finished and no event remains: the simulation is over.
    Done,
    /// No event strictly earlier than the limit remains.
    Idle {
        /// Earliest pending event at or past the limit; `None` when the
        /// queue is empty (any live agents are parked on flags/barriers).
        next: Option<SimTime>,
    },
}

/// Panic payload used by [`AgentCtx::abort`] to carry a structured
/// [`SimError`] out of an agent closure.
pub(crate) struct AbortSim(pub(crate) SimError);

/// What a blocking agent asks for; applied on its own thread before it
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
    /// time). Executed by the dispatcher on whichever thread holds the
    /// token, outside the engine lock; the closure must not call back into
    /// the engine. A panic in it is carried to the thread in
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
pub(crate) enum BlockedOn {
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

/// Which thread holds the scheduling token.
pub(crate) enum Turn {
    /// The thread in [`Engine::drive`]: between runs, or with an outcome.
    Scheduler,
    /// The agent's own thread.
    Agent(AgentId),
}

/// How a dispatch that hands the token back to [`Engine::drive`] ended.
enum Outcome {
    /// The run (or `run_until` window) is over, or an agent failed.
    Status(Result<RunStatus, SimError>),
    /// A `Call` closure panicked; the payload is resumed by the drive thread.
    CallPanic(Box<dyn Any + Send>),
}

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
    cv: Arc<Condvar>,
    handle: Option<JoinHandle<()>>,
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
    pub(crate) turn: Turn,
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
    /// Stop before events at or past this time (set per [`Engine::drive`]).
    limit: Option<SimTime>,
    /// Left for the drive thread by the dispatch that ended the run.
    outcome: Option<Outcome>,
    /// Token passes from one thread to another (see [`Engine::handoffs`]).
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

    /// Time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|k| k.time)
    }

    /// `name: blocked-on` diagnostics for every live agent — the payload of
    /// a deadlock report. Shared between the unbounded drive loop and the
    /// sharded coordinator's global-deadlock aggregation.
    pub(crate) fn blocked_strings(&self) -> Vec<String> {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| match a.wait_target {
                Some(w) => format!("{}: {}", self.pool.resolve(a.name), w),
                None => format!("{}: (unknown wait)", self.pool.resolve(a.name)),
            })
            .collect()
    }

    /// Structured form of [`Central::blocked_strings`]: agent name plus the
    /// raw wait target, so the sharded coordinator can render flag/barrier
    /// ids in a partition-independent (global) numbering.
    pub(crate) fn blocked_details(&self) -> Vec<(String, Option<BlockedOn>)> {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| (self.pool.resolve(a.name).to_string(), a.wait_target))
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

    /// Why nothing is runnable before the limit: done, idle (bounded runs
    /// only) or deadlocked.
    fn stop_status(&self, next: Option<SimTime>) -> Result<RunStatus, SimError> {
        if next.is_none() && self.live_agents == 0 {
            return Ok(RunStatus::Done);
        }
        if self.limit.is_some() {
            return Ok(RunStatus::Idle { next });
        }
        Err(SimError::Deadlock {
            time: self.clock,
            blocked: self.blocked_strings(),
            cycle: self.wait_cycle(),
        })
    }

    /// Give the token back to the drive thread with the run's outcome.
    fn hand_back(&mut self, shared: &Shared, outcome: Outcome) {
        self.outcome = Some(outcome);
        self.turn = Turn::Scheduler;
        shared.sched_cv.notify_one();
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
    /// Wakes the drive thread when the token comes back with an outcome.
    pub(crate) sched_cv: Condvar,
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
                    turn: Turn::Scheduler,
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
                    limit: None,
                    outcome: None,
                    handoffs: 0,
                    trace: Trace::with_pool(Arc::clone(&pool)),
                    trace_enabled: true,
                    pool: Arc::clone(&pool),
                    hb: None,
                    jitter: None,
                    jitter_ctr: 0,
                }),
                sched_cv: Condvar::new(),
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

    /// Times the scheduling token passed from one thread to another — one
    /// per `Resume` of an agent other than the one dispatching. Like
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
    /// Returns its id. The closure runs on a dedicated OS thread, but only
    /// while that thread holds the (single) execution token.
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
            g.hb = Some(Arc::new(HbTracker::new()));
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
    /// On error the engine is shut down: all parked agent threads are
    /// unwound and joined, so the process does not leak threads. A panic in
    /// a [`schedule_call`](AgentCtx::schedule_call) closure does the same
    /// shutdown, then unwinds out of `run` with the closure's own payload.
    pub fn run(&self) -> Result<SimTime, SimError> {
        match self.drive(None) {
            Ok(_) => Ok(self.now()),
            Err(e) => {
                self.shutdown();
                Err(e)
            }
        }
    }

    /// Process events strictly earlier than `limit`, then stop.
    ///
    /// This is the shard-side half of conservative parallel execution: a
    /// coordinator that can prove no cross-engine message will arrive
    /// before `limit` (the safe horizon) may run each engine's window
    /// concurrently, then exchange messages via
    /// [`Engine::inject_signal_at`] and advance the horizon.
    ///
    /// Unlike [`Engine::run`], an empty queue with live agents is *not* a
    /// deadlock here — the agents may be waiting on a message the
    /// coordinator has not injected yet — so the engine reports
    /// [`RunStatus::Idle`] and leaves deadlock judgement to the caller.
    /// Errors (panics, aborts, timeouts) surface exactly as in `run`, but
    /// the engine is not shut down; the caller owns teardown across all
    /// its engines (dropping the engine still joins every agent thread).
    pub fn run_until(&self, limit: SimTime) -> Result<RunStatus, SimError> {
        self.drive(Some(limit))
    }

    /// Schedule a signal application at absolute virtual time `at` from
    /// *outside* the engine — the delivery half of a cross-engine message.
    ///
    /// Panics if `at` is earlier than the engine clock: a conservative
    /// coordinator must never deliver into a shard's past (the lookahead
    /// contract guarantees `at >= horizon >= clock`).
    pub fn inject_signal_at(&self, at: SimTime, flag: Flag, op: SignalOp, value: u64) {
        let mut g = self.shared.central.lock();
        assert!(
            at >= g.clock,
            "message injected at {at} is before the engine clock {} — lookahead violated",
            g.clock
        );
        g.push_signal(at, flag, op, value, None);
    }

    /// Time of the earliest pending event, if any (for external
    /// coordinators computing safe horizons).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shared.central.lock().peek_time()
    }

    /// Number of agents that have not finished yet.
    pub fn live_agents(&self) -> usize {
        self.shared.central.lock().live_agents
    }

    /// Structured blocked-agent info (name, wait target) for the sharded
    /// coordinator's canonical deadlock rendering.
    pub(crate) fn blocked_details(&self) -> Vec<(String, Option<BlockedOn>)> {
        self.shared.central.lock().blocked_details()
    }

    /// Start the first dispatch of a run, wait until the token comes back
    /// with an outcome, then join the agents that finished meanwhile.
    fn drive(&self, limit: Option<SimTime>) -> Result<RunStatus, SimError> {
        let mut g = self.shared.central.lock();
        g.limit = limit;
        g = dispatch(&self.shared, g, None);
        while !matches!(g.turn, Turn::Scheduler) {
            self.shared.sched_cv.wait(&mut g);
        }
        let outcome = g.outcome.take().expect("token returned without an outcome");
        let finished: Vec<JoinHandle<()>> = g
            .agents
            .iter_mut()
            .filter(|a| !a.alive)
            .filter_map(|a| a.handle.take())
            .collect();
        drop(g);
        for h in finished {
            // Each is past its last dispatch; the join is immediate.
            let _ = h.join();
        }
        match outcome {
            Outcome::Status(status) => status,
            Outcome::CallPanic(payload) => {
                self.shutdown();
                resume_unwind(payload)
            }
        }
    }

    /// Unwind and join every still-parked agent thread.
    pub(crate) fn shutdown(&self) {
        let mut g = self.shared.central.lock();
        g.shutdown = true;
        let cvs: Vec<Arc<Condvar>> = g
            .agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| Arc::clone(&a.cv))
            .collect();
        for cv in &cvs {
            cv.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = g
            .agents
            .iter_mut()
            .filter_map(|a| a.handle.take())
            .collect();
        drop(g);
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scheduler: run the event queue on the calling thread, whichever
/// thread holds the token, until the next `Resume`.
///
/// `holder` is the agent whose thread is dispatching; `None` for the drive
/// thread and for an agent thread that has finished. Resuming the holder
/// returns at once, with no thread switch. Resuming any other agent sets
/// `turn`, wakes exactly that agent and returns, for the caller to park.
/// When nothing is runnable before the limit, or a `Call` panics, the
/// outcome goes back to the drive thread instead.
pub(crate) fn dispatch<'a>(
    shared: &'a Shared,
    mut g: MutexGuard<'a, Central>,
    holder: Option<AgentId>,
) -> MutexGuard<'a, Central> {
    let outcome = loop {
        let next = g.peek_time();
        let runnable = match (next, g.limit) {
            (Some(t), Some(l)) => t < l,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !runnable {
            break Outcome::Status(g.stop_status(next));
        }
        let (time, action) = g.pop_event().expect("peeked event vanished");
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
                    g.turn = Turn::Agent(agent);
                    g.agents[agent.0].cv.notify_one();
                }
                return g;
            }
        }
    };
    g.hand_back(shared, outcome);
    g
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
    let cv = Arc::new(Condvar::new());
    let id;
    {
        let mut g = shared.central.lock();
        id = AgentId(g.agents.len());
        if let Some(hb) = &g.hb {
            hb.on_spawn(parent, id, g.clock);
        }
        g.agents.push(AgentSlot {
            name,
            cv: Arc::clone(&cv),
            handle: None,
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
    }
    let thread_shared = Arc::clone(shared);
    let thread_cv = Arc::clone(&cv);
    let handle = std::thread::Builder::new()
        .name(format!("sim-agent-{}", id.0))
        .spawn(move || {
            // Park until the token reaches us for the first time.
            {
                let mut g = thread_shared.central.lock();
                while !matches!(g.turn, Turn::Agent(a) if a == id) {
                    if g.shutdown {
                        return;
                    }
                    thread_cv.wait(&mut g);
                }
            }
            let mut ctx = AgentCtx::new(Arc::clone(&thread_shared), id, Arc::clone(&thread_cv));
            let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            let failure = match result {
                Ok(()) => None,
                Err(payload) => match payload.downcast::<AbortSim>() {
                    Ok(abort) => Some(abort.0),
                    Err(payload) => {
                        if payload.downcast_ref::<ShutdownUnwind>().is_some() {
                            // Engine-initiated unwind: exit silently, the
                            // engine is already tearing down and holds no
                            // expectations.
                            return;
                        }
                        Some(SimError::AgentPanic {
                            agent: ctx.name(),
                            message: render_panic(&*payload),
                        })
                    }
                },
            };
            // Last dispatch: pass the token on (or end the run), then exit.
            // The drive thread joins this thread when the token returns.
            let mut g = thread_shared.central.lock();
            g.agents[id.0].alive = false;
            g.live_agents -= 1;
            match failure {
                None => drop(dispatch(&thread_shared, g, None)),
                Some(err) => g.hand_back(&thread_shared, Outcome::Status(Err(err))),
            }
        })
        .expect("failed to spawn agent thread");
    shared.central.lock().agents[id.0].handle = Some(handle);
    id
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

    /// Only the engine itself still holds the shared state: every agent
    /// thread (and its `AgentCtx`) is gone.
    fn assert_threads_joined(engine: &Engine) {
        assert_eq!(
            Arc::strong_count(&engine.shared),
            1,
            "an agent thread leaked"
        );
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
        // Only the first resume switches threads; every later one is the
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
        engine.spawn("issuer", |ctx| {
            ctx.schedule_call(us(5.0), || panic!("call failed"));
            // The call falls due inside this agent's own dispatch.
            ctx.advance(us(10.0));
        });
        engine.spawn("bystander", move |ctx| ctx.wait_flag(flag, Cmp::Ge, 1));
        let payload = catch_unwind(AssertUnwindSafe(|| engine.run()))
            .expect_err("the call's panic must escape Engine::run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"call failed"));
        assert_threads_joined(&engine);
    }

    /// Held in an agent thread's TLS, so it is dropped only as the thread
    /// exits, after the thread's last dispatch. The delay makes an unjoined
    /// thread still be exiting when `run` returns.
    struct SlowExit {
        _held: Arc<()>,
    }

    impl Drop for SlowExit {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    thread_local!(static EXIT: std::cell::RefCell<Option<SlowExit>> = const {
        std::cell::RefCell::new(None)
    });

    #[test]
    fn ok_run_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        let exiting = Arc::new(());
        let child_exit = Arc::clone(&exiting);
        engine.spawn("parent", move |ctx| {
            ctx.spawn("child", move |ctx| {
                EXIT.with(|e| *e.borrow_mut() = Some(SlowExit { _held: child_exit }));
                ctx.advance(us(2.0));
                ctx.signal(flag, SignalOp::Set, 1);
            });
            ctx.wait_flag(flag, Cmp::Ge, 1);
        });
        engine.spawn("other", |ctx| ctx.advance(us(3.0)));
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(3.0));
        assert_threads_joined(&engine);
        assert_eq!(
            Arc::strong_count(&exiting),
            1,
            "a finished agent was not joined"
        );
    }

    #[test]
    fn deadlocked_run_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        engine.spawn("finisher", |ctx| ctx.advance(us(1.0)));
        engine.spawn("stuck", move |ctx| ctx.wait_flag(flag, Cmp::Ge, 1));
        assert!(matches!(engine.run(), Err(SimError::Deadlock { .. })));
        assert_threads_joined(&engine);
    }

    #[test]
    fn agent_panic_mid_pass_joins_every_agent_thread() {
        let engine = Engine::new();
        let flag = engine.flag(0);
        engine.spawn("walker", |ctx| {
            for _ in 0..4 {
                ctx.advance(us(1.0));
            }
        });
        engine.spawn("boom", |ctx| {
            ctx.advance(us(1.5));
            panic!("boom");
        });
        engine.spawn("parked", move |ctx| ctx.wait_flag(flag, Cmp::Ge, 1));
        match engine.run() {
            Err(SimError::AgentPanic { agent, message }) => {
                assert_eq!((agent.as_str(), message.as_str()), ("boom", "boom"));
            }
            other => panic!("expected the agent's panic, got {other:?}"),
        }
        // drive -> walker -> boom -> parked -> walker -> boom: `boom` panics
        // on a token `walker` passed it, with `walker` parked mid-handoff.
        assert_eq!(engine.handoffs(), 5);
        assert_threads_joined(&engine);
    }
}

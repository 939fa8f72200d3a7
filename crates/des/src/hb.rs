//! Happens-before tracking, vector-clock race detection, and CPU-Free
//! protocol conformance checking.
//!
//! When enabled (see [`Engine::enable_hb`](crate::Engine::enable_hb)) the
//! engine records a **structured happens-before event stream** alongside the
//! span trace: every signal send/delivery, satisfied wait, barrier release
//! and agent spawn becomes an [`HbEvent`] with explicit dependency edges.
//! On top of that event stream the tracker maintains **vector clocks**:
//!
//! * every agent owns one clock slot, ticked at each synchronization
//!   operation and each recorded memory access;
//! * every *asynchronous* effect (an `nbi` put in flight, a DMA completion)
//!   owns a slot of its own while it is live ([`AsyncClock`]). The effect's
//!   accesses are stamped with the issuer's clock *plus* that slot, and
//!   the slot only enters another agent's clock when that agent
//!   synchronizes through the effect's completion signal (or the issuer
//!   performs a `quiet`). A source buffer rewritten before delivery is
//!   therefore *unordered* with the in-flight read — exactly the
//!   source-reuse race the NVSHMEM spec warns about;
//! * flag cells and barriers carry the join of every clock that signalled
//!   through them, so waiters inherit order from their producers.
//!
//! Memory effects are reported by the layers above as half-open element
//! ranges on opaque location ids; two accesses **race** when their ranges
//! overlap, at least one is a write, and neither happens-before the other.
//! Conformance rules checked in addition to races:
//!
//! * **lost signals** — a wait that was still blocked when the simulation
//!   ended becomes a diagnostic naming the waiter and the peer it expected
//!   the put-with-signal from ([`HbTracker::note_unsatisfied_wait`]);
//! * **nbi source reuse** — a race in which one endpoint is the in-flight
//!   source read of an `nbi` put is classified [`DiagKind::NbiSourceReuse`];
//! * **iteration divergence** — per-PE iteration counters reported at
//!   commit points must never diverge from a neighbor's by more than 1
//!   ([`HbTracker::record_iteration`]).
//!
//! The per-flag clock is a *cumulative join* over all deliveries, which is
//! exact for the dedicated semaphore cells used by the CPU-Free protocols
//! (one producer, monotone values) and conservative (may under-report races,
//! never falsely reports one through a flag) for multi-writer flags.
//!
//! # Bounded state
//!
//! The checker's cost per event and per access does not grow with the
//! run's length:
//!
//! * **Shadow state.** Each location keeps only the accesses a later one can
//!   still race with *in a way no retained access reports*. An access is
//!   dropped once a later access that covers its range, conflicts with
//!   everything it conflicts with under the same [`DiagKind`], and happens
//!   after it is recorded: a future race with the dropped access is then
//!   also a race with the later one, of the same kind. Retained accesses
//!   keep an epoch (owner slot, stamp), not a clock.
//! * **Slot recycling.** An effect's slot is freed once its completion has
//!   been joined into some clock (delivered or absorbed) *and* none of its
//!   accesses is retained: nothing reads the slot after that. The next
//!   effect on a recycled slot stamps one above the previous one, so a
//!   clock still holding the old value never looks ordered after it.
//!   Clock length is the peak number of live slots.
//!
//! Both rest on one contract: an effect records its accesses
//! ([`HbTracker::record_access_async`]) before its stamp is delivered or
//! absorbed. No retained access can then have seen the stamp of a new
//! access, so the epoch test in one direction decides every pair.

use crate::agent::AgentId;
use crate::intern::{Sym, SymPool};
use crate::lock::Mutex;
use crate::sync::{Barrier, Flag};
use crate::time::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Hard cap on retained diagnostics, so a badly broken run cannot grow
/// memory without bound. The count of *detected* problems keeps increasing.
const MAX_DIAGNOSTICS: usize = 256;

/// A vector clock: slot -> logical time, stored densely.
///
/// The tracker hands out small slot numbers — one per agent, plus one per
/// *live* asynchronous effect — and recycles an effect's slot once nothing
/// can read it, so a clock is as long as the peak number of live slots.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    slots: Vec<u64>,
}

impl VClock {
    /// The empty clock (all slots at zero).
    pub fn new() -> VClock {
        VClock::default()
    }

    /// Value of one slot (zero when never set).
    pub fn get(&self, slot: u32) -> u64 {
        self.slots.get(slot as usize).copied().unwrap_or(0)
    }

    /// Increment a slot, returning its new value.
    pub fn tick(&mut self, slot: u32) -> u64 {
        let v = self.at(slot);
        *v += 1;
        *v
    }

    /// Slot-wise maximum with `other`.
    pub fn join(&mut self, other: &VClock) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (v, &o) in self.slots.iter_mut().zip(&other.slots) {
            *v = (*v).max(o);
        }
    }

    /// `true` when every slot of `self` is `<=` the one in `other`.
    pub fn le(&self, other: &VClock) -> bool {
        (0..self.slots.len() as u32).all(|s| self.get(s) <= other.get(s))
    }

    fn at(&mut self, slot: u32) -> &mut u64 {
        let i = slot as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        &mut self.slots[i]
    }
}

/// Equal as clocks: trailing zero slots do not count.
impl PartialEq for VClock {
    fn eq(&self, other: &VClock) -> bool {
        self.le(other) && other.le(self)
    }
}

impl Eq for VClock {}

/// What kind of synchronization an [`HbEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbEventKind {
    /// An agent spawned a child agent.
    Spawn {
        /// The spawned agent.
        child: AgentId,
    },
    /// An agent issued a signal (immediate or scheduled) on a flag.
    SignalSend {
        /// The signalled flag.
        flag: Flag,
    },
    /// A (possibly deferred) signal was applied to its flag.
    SignalDeliver {
        /// The signalled flag.
        flag: Flag,
    },
    /// A blocked (or immediately satisfied) flag wait completed.
    WaitSatisfied {
        /// The awaited flag.
        flag: Flag,
    },
    /// A barrier released this agent (one event per participant).
    BarrierRelease {
        /// The releasing barrier.
        barrier: Barrier,
    },
    /// An asynchronous effect (nbi put / DMA) was issued; it owns the fresh
    /// clock component `token`.
    AsyncIssue {
        /// The effect's clock component.
        token: u32,
    },
    /// The agent absorbed `tokens` outstanding async effects (a `quiet`).
    Absorb {
        /// How many effects were absorbed.
        tokens: usize,
    },
}

/// One node of the happens-before graph.
///
/// Event ids increase monotonically in scheduler execution order, and every
/// dependency edge points from a smaller id to a larger one — the stream is
/// a topological order of the graph by construction, which the property
/// tests verify against virtual time.
#[derive(Debug, Clone)]
pub struct HbEvent {
    /// Monotone event id (position in the stream).
    pub id: u64,
    /// Virtual time at which the event occurred.
    pub time: SimTime,
    /// The agent the event belongs to (`None` for detached deliveries).
    pub agent: Option<AgentId>,
    /// What happened.
    pub kind: HbEventKind,
    /// Ids of events that happen-before this one (direct edges only).
    pub deps: Vec<u64>,
}

/// Classification of a checker diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// Two conflicting memory accesses unordered by happens-before.
    DataRace,
    /// A data race in which one endpoint is the in-flight source read of an
    /// `nbi` put — the source buffer was reused before delivery.
    NbiSourceReuse,
    /// A `signal_wait` that was never satisfied by a matching
    /// put-with-signal.
    LostSignal,
    /// Neighboring PEs' iteration counters diverged by more than 1.
    IterationDivergence,
    /// A `signal_wait` with no structurally matching producer (wrong flag,
    /// wrong target PE, or a counter value the producers never reach), or a
    /// signal set that no PE ever waits on. Static-analysis vocabulary; the
    /// dynamic checker reports the runtime shadow of these as
    /// [`DiagKind::LostSignal`].
    UnmatchedSignalWait,
    /// A consumer tasklet reads remote-fed (halo) cells that no producer put
    /// covers: the cells would hold stale data on every schedule.
    HaloCoverageGap,
    /// A symmetric-heap operation (put/get) targeting an array whose storage
    /// class is not `GpuNvshmem` — the remote side has no such allocation.
    StorageClassViolation,
    /// A cycle of `signal_wait`s across PEs in which every wait's sole
    /// producer sits behind the next wait: a guaranteed deadlock on all
    /// schedules.
    WaitCycle,
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagKind::DataRace => "data race",
            DiagKind::NbiSourceReuse => "nbi source reuse",
            DiagKind::LostSignal => "lost signal",
            DiagKind::IterationDivergence => "iteration divergence",
            DiagKind::UnmatchedSignalWait => "unmatched signal wait",
            DiagKind::HaloCoverageGap => "halo coverage gap",
            DiagKind::StorageClassViolation => "storage class violation",
            DiagKind::WaitCycle => "wait cycle",
        };
        f.write_str(s)
    }
}

/// One checker finding, with a human-readable message naming both endpoints.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The finding's classification.
    pub kind: DiagKind,
    /// Virtual time at which the finding was made.
    pub time: SimTime,
    /// Full description, naming both endpoints of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.kind, self.time, self.message)
    }
}

/// The clock stamp of an asynchronous effect: the issuer's clock at issue
/// time plus a slot owned by the effect itself.
///
/// Obtained from [`HbTracker::async_begin`]; attach it to the effect's
/// accesses ([`HbTracker::record_access_async`]), to its completion signal
/// ([`AgentCtx::schedule_signal_with_stamp`](crate::AgentCtx::schedule_signal_with_stamp)),
/// and finally return it to the issuer via [`HbTracker::absorb`] when the
/// issuer performs a `quiet`.
#[derive(Debug, Clone)]
pub struct AsyncClock {
    pub(crate) clock: VClock,
    pub(crate) event: u64,
    /// The slot the stamp was issued on: the effect's own, or the
    /// signalling agent's for a plain signal.
    pub(crate) slot: u32,
    /// The agent that issued it (names the effect's accesses).
    pub(crate) issuer: AgentId,
}

impl AsyncClock {
    /// The stamp's value on its own slot.
    fn stamp(&self) -> u64 {
        self.clock.get(self.slot)
    }
}

/// A retained access: an epoch plus what a diagnostic needs to name it.
struct Access {
    /// Clock slot of the issuing agent / async effect.
    owner: u32,
    /// Owner-slot value at the access.
    stamp: u64,
    write: bool,
    nbi_src: bool,
    range: (usize, usize),
    /// The issuing agent and an interned label; both are resolved to text
    /// only when a race is actually reported.
    agent: AgentId,
    label: Sym,
    time: SimTime,
}

impl Access {
    /// `self` happens-before an access stamped with `clock`.
    fn hb(&self, clock: &VClock) -> bool {
        clock.get(self.owner) >= self.stamp
    }

    fn overlaps(&self, other: &Access) -> bool {
        self.range.0 < other.range.1 && other.range.0 < self.range.1
    }

    /// The kind of a race between `self` and `other`.
    fn race_kind(&self, other: &Access) -> DiagKind {
        if (self.nbi_src && other.write) || (other.nbi_src && self.write) {
            DiagKind::NbiSourceReuse
        } else {
            DiagKind::DataRace
        }
    }

    /// Every access that conflicts with `a` also conflicts with `self`,
    /// with the same [`Access::race_kind`], on a range that contains `a`'s.
    /// Given that `a` happens-before `self`, `a` can then be dropped.
    fn covers(&self, a: &Access) -> bool {
        self.range.0 <= a.range.0
            && a.range.1 <= self.range.1
            && (self.write || !a.write)
            && self.nbi_src == a.nbi_src
    }

    fn describe(&self, pool: &SymPool, agents: &[AgentHb]) -> String {
        let who = agents.get(self.agent.0).map_or(Sym::EMPTY, |a| a.name);
        format!(
            "{} {} [{}..{}) by `{}` ({}) at {}",
            if self.nbi_src { "nbi-source" } else { "" },
            if self.write { "write" } else { "read" },
            self.range.0,
            self.range.1,
            pool.resolve(who),
            pool.resolve(self.label),
            self.time,
        )
        .trim_start()
        .to_string()
    }
}

/// Bookkeeping for one clock slot.
#[derive(Default)]
struct SlotState {
    /// The slot belongs to an agent for the rest of the run.
    agent: bool,
    /// Stamp of the slot's current (or last) effect. A recycled slot stamps
    /// one above its previous effect.
    stamp: u64,
    /// The current effect's stamp was delivered or absorbed: it records no
    /// more accesses.
    joined: bool,
    /// Retained accesses owned by the current effect.
    retained: u32,
}

/// Per-agent state, indexed by [`AgentId`].
#[derive(Default)]
struct AgentHb {
    /// Clock slot, allocated at the agent's first synchronization.
    slot: Option<u32>,
    clock: VClock,
    last_event: Option<u64>,
    /// Spawn event id to attach to the agent's first event.
    parent_event: Option<u64>,
    name: Sym,
}

/// Per-flag state, indexed by the flag.
#[derive(Default)]
struct FlagHb {
    clock: VClock,
    /// Event ids of deliveries that contributed to the clock.
    events: Vec<u64>,
}

#[derive(Default)]
struct HbInner {
    /// Component ids as the event stream numbers them: one per agent and
    /// per async effect, never reused (unlike clock slots).
    next_id: u32,
    agents: Vec<AgentHb>,
    slots: Vec<SlotState>,
    /// Effect slots ready for reuse.
    free_slots: Vec<u32>,
    flags: Vec<FlagHb>,
    events: Vec<HbEvent>,
    /// Shadow state: the retained accesses of each location.
    shadow: HashMap<u64, Vec<Access>>,
    retained: usize,
    iters: Vec<Option<(u64, Sym)>>,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
    n_accesses: usize,
    /// Resolves agent names and access labels.
    pool: Arc<SymPool>,
}

impl HbInner {
    fn agent(&mut self, agent: AgentId) -> &mut AgentHb {
        if agent.0 >= self.agents.len() {
            self.agents.resize_with(agent.0 + 1, AgentHb::default);
        }
        &mut self.agents[agent.0]
    }

    fn flag(&mut self, flag: Flag) -> &mut FlagHb {
        if flag.0 >= self.flags.len() {
            self.flags.resize_with(flag.0 + 1, FlagHb::default);
        }
        &mut self.flags[flag.0]
    }

    /// The agent's clock slot, allocated on first use.
    fn slot_of(&mut self, agent: AgentId) -> u32 {
        if let Some(s) = self.agent(agent).slot {
            return s;
        }
        self.next_id += 1;
        let s = self.slots.len() as u32;
        self.slots.push(SlotState {
            agent: true,
            ..SlotState::default()
        });
        let a = &mut self.agents[agent.0];
        a.slot = Some(s);
        a.clock.tick(s);
        s
    }

    /// Tick the agent's own slot and return its new value.
    fn tick(&mut self, agent: AgentId) -> u64 {
        let s = self.slot_of(agent);
        self.agents[agent.0].clock.tick(s)
    }

    /// A fresh effect slot and its stamp.
    fn alloc_effect(&mut self) -> (u32, u64) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(SlotState::default());
            self.slots.len() as u32 - 1
        });
        let st = &mut self.slots[slot as usize];
        st.stamp += 1;
        st.joined = false;
        (slot, st.stamp)
    }

    /// `stamp` was joined into another clock. For a still-current effect
    /// that ends its accesses; the slot is freed once none is retained.
    fn mark_joined(&mut self, stamp: &AsyncClock) {
        let st = &mut self.slots[stamp.slot as usize];
        if !st.agent && !st.joined && st.stamp == stamp.stamp() {
            st.joined = true;
            if st.retained == 0 {
                self.free_slots.push(stamp.slot);
            }
        }
    }

    fn event(
        &mut self,
        agent: Option<AgentId>,
        time: SimTime,
        kind: HbEventKind,
        mut deps: Vec<u64>,
    ) -> u64 {
        let id = self.events.len() as u64;
        if let Some(a) = agent {
            let a = self.agent(a);
            deps.extend(a.last_event.replace(id));
            deps.extend(a.parent_event.take());
        }
        deps.sort_unstable();
        deps.dedup();
        self.events.push(HbEvent {
            id,
            time,
            agent,
            kind,
            deps,
        });
        id
    }

    fn diagnose(&mut self, kind: DiagKind, time: SimTime, message: String) {
        if self.diagnostics.len() >= MAX_DIAGNOSTICS {
            self.suppressed += 1;
            return;
        }
        self.diagnostics.push(Diagnostic {
            kind,
            time,
            message,
        });
    }

    /// Race `access` (stamped with `clock`) against the location's shadow
    /// state, drop the accesses it covers, and retain it.
    fn insert_access(&mut self, loc: u64, loc_name: &str, access: Access, clock: &VClock) {
        self.n_accesses += 1;
        let prior = self.shadow.entry(loc).or_default();
        let mut findings = Vec::new();
        for a in prior.iter() {
            if a.overlaps(&access) && (a.write || access.write) && !a.hb(clock) {
                findings.push((
                    a.race_kind(&access),
                    format!(
                        "unordered conflicting accesses to `{}`: {} vs {}",
                        loc_name,
                        a.describe(&self.pool, &self.agents),
                        access.describe(&self.pool, &self.agents)
                    ),
                ));
            }
        }
        let before = prior.len();
        prior.retain(|a| {
            let dropped = access.covers(a) && a.hb(clock);
            if dropped {
                unretain(&mut self.slots, &mut self.free_slots, a);
            }
            !dropped
        });
        self.retained -= before - prior.len();
        let st = &mut self.slots[access.owner as usize];
        if !st.agent {
            st.retained += 1;
        }
        let t = access.time;
        prior.push(access);
        self.retained += 1;
        for (kind, msg) in findings {
            self.diagnose(kind, t, msg);
        }
    }
}

/// `a` left the shadow state: free its effect's slot if that was the
/// effect's last retained access and its stamp was already joined.
fn unretain(slots: &mut [SlotState], free_slots: &mut Vec<u32>, a: &Access) {
    let st = &mut slots[a.owner as usize];
    if !st.agent {
        st.retained -= 1;
        if st.joined && st.retained == 0 {
            free_slots.push(a.owner);
        }
    }
}

/// The happens-before tracker: event stream, vector clocks, race detector
/// and conformance rules. Created through
/// [`Engine::enable_hb`](crate::Engine::enable_hb); all methods are cheap
/// no-ops when the tracker is simply never instantiated.
#[derive(Default)]
pub struct HbTracker {
    inner: Mutex<HbInner>,
}

impl HbTracker {
    /// Create an empty tracker with a symbol pool of its own.
    pub fn new() -> HbTracker {
        HbTracker::default()
    }

    /// Create an empty tracker whose agent names ([`HbTracker::on_spawn`])
    /// come from `pool`.
    pub fn with_pool(pool: Arc<SymPool>) -> HbTracker {
        HbTracker {
            inner: Mutex::new(HbInner {
                pool,
                ..HbInner::default()
            }),
        }
    }

    /// Name agents that existed before tracking began (no events).
    pub(crate) fn name_agents(&self, names: impl Iterator<Item = Sym>) {
        let mut g = self.inner.lock();
        for (i, name) in names.enumerate() {
            g.agent(AgentId(i)).name = name;
        }
    }

    // ---- engine hooks -----------------------------------------------------
    //
    // Public so that a tracker can be driven without an engine (the
    // differential tests do); an engine calls them itself.

    /// A child agent named `name` (a symbol of the tracker's pool, see
    /// [`HbTracker::with_pool`]) was spawned: it inherits the parent's
    /// clock.
    pub fn on_spawn(&self, parent: Option<AgentId>, child: AgentId, name: Sym, time: SimTime) {
        let mut g = self.inner.lock();
        let child_slot = g.slot_of(child);
        g.agents[child.0].name = name;
        if let Some(p) = parent {
            g.tick(p);
            let mut clock = g.agents[p.0].clock.clone();
            clock.tick(child_slot);
            g.agents[child.0].clock = clock;
            let ev = g.event(Some(p), time, HbEventKind::Spawn { child }, Vec::new());
            g.agents[child.0].parent_event = Some(ev);
        }
    }

    /// An agent issued a signal on `flag`; returns the stamp the delivery
    /// must carry (the sender's clock after a tick).
    pub fn on_schedule_signal(&self, agent: AgentId, flag: Flag, time: SimTime) -> AsyncClock {
        let mut g = self.inner.lock();
        g.tick(agent);
        let clock = g.agents[agent.0].clock.clone();
        let event = g.event(
            Some(agent),
            time,
            HbEventKind::SignalSend { flag },
            Vec::new(),
        );
        AsyncClock {
            clock,
            event,
            slot: g.agents[agent.0].slot.expect("ticked above"),
            issuer: agent,
        }
    }

    /// A signal (with its sender/effect stamp) was applied to `flag`.
    pub fn on_signal_deliver(&self, flag: Flag, stamp: &AsyncClock, time: SimTime) {
        let mut g = self.inner.lock();
        g.flag(flag).clock.join(&stamp.clock);
        let ev = g.event(
            None,
            time,
            HbEventKind::SignalDeliver { flag },
            vec![stamp.event],
        );
        g.flags[flag.0].events.push(ev);
        g.mark_joined(stamp);
    }

    /// An agent's wait on `flag` is satisfied: it inherits the flag's clock.
    pub fn on_wait_satisfied(&self, agent: AgentId, flag: Flag, time: SimTime) {
        let mut g = self.inner.lock();
        let s = g.slot_of(agent);
        g.flag(flag);
        let HbInner { agents, flags, .. } = &mut *g;
        let clock = &mut agents[agent.0].clock;
        clock.join(&flags[flag.0].clock);
        clock.tick(s);
        let deps = flags[flag.0].events.clone();
        g.event(Some(agent), time, HbEventKind::WaitSatisfied { flag }, deps);
    }

    /// A barrier released all `agents`: each inherits the join of all.
    pub fn on_barrier_release(&self, agents: &[AgentId], barrier: Barrier, time: SimTime) {
        let mut g = self.inner.lock();
        let mut joined = VClock::new();
        let mut deps = Vec::new();
        for &a in agents {
            g.slot_of(a);
            let a = &g.agents[a.0];
            joined.join(&a.clock);
            deps.extend(a.last_event);
        }
        for &a in agents {
            let s = g.slot_of(a);
            let clock = &mut g.agents[a.0].clock;
            clock.clone_from(&joined);
            clock.tick(s);
            g.event(
                Some(a),
                time,
                HbEventKind::BarrierRelease { barrier },
                deps.clone(),
            );
        }
    }

    // ---- async effects ----------------------------------------------------

    /// Begin an asynchronous effect issued by `agent`: allocates a clock
    /// slot for the effect and returns its stamp.
    pub fn async_begin(&self, agent: AgentId, time: SimTime) -> AsyncClock {
        let mut g = self.inner.lock();
        g.slot_of(agent);
        let token = g.next_id;
        g.next_id += 1;
        let (slot, stamp) = g.alloc_effect();
        g.tick(agent);
        let mut clock = g.agents[agent.0].clock.clone();
        *clock.at(slot) = stamp;
        let event = g.event(
            Some(agent),
            time,
            HbEventKind::AsyncIssue { token },
            Vec::new(),
        );
        AsyncClock {
            clock,
            event,
            slot,
            issuer: agent,
        }
    }

    /// The issuer waited for its outstanding effects (a `quiet`): join the
    /// effects' clocks back into the issuer's clock.
    pub fn absorb(&self, agent: AgentId, effects: &[AsyncClock], time: SimTime) {
        if effects.is_empty() {
            return;
        }
        let mut g = self.inner.lock();
        let s = g.slot_of(agent);
        let clock = &mut g.agents[agent.0].clock;
        for e in effects {
            clock.join(&e.clock);
        }
        clock.tick(s);
        for e in effects {
            g.mark_joined(e);
        }
        let deps = effects.iter().map(|e| e.event).collect();
        g.event(
            Some(agent),
            time,
            HbEventKind::Absorb {
                tokens: effects.len(),
            },
            deps,
        );
    }

    // ---- memory effects ---------------------------------------------------

    /// Record a synchronous access by `agent` to elements `[lo, hi)` of the
    /// location `loc`, racing it against all conflicting prior accesses.
    #[allow(clippy::too_many_arguments)]
    pub fn record_access(
        &self,
        agent: AgentId,
        time: SimTime,
        loc: u64,
        loc_name: &str,
        lo: usize,
        hi: usize,
        write: bool,
        label: &str,
    ) {
        let mut g = self.inner.lock();
        let stamp = g.tick(agent);
        let access = Access {
            owner: g.agents[agent.0].slot.expect("ticked above"),
            stamp,
            write,
            nbi_src: false,
            range: (lo, hi),
            agent,
            label: g.pool.intern(label),
            time,
        };
        let clock = std::mem::take(&mut g.agents[agent.0].clock);
        g.insert_access(loc, loc_name, access, &clock);
        g.agents[agent.0].clock = clock;
    }

    /// Record an access performed by an asynchronous effect (stamped with
    /// the effect's [`AsyncClock`] rather than any agent's current clock).
    /// `nbi_src` marks the in-flight read of an nbi put's source buffer.
    ///
    /// # Panics
    /// If `nbi_src` is set on a write, or the stamp is not a live effect's:
    /// an effect records its accesses before its stamp is delivered or
    /// absorbed (see the module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn record_access_async(
        &self,
        stamp: &AsyncClock,
        time: SimTime,
        loc: u64,
        loc_name: &str,
        lo: usize,
        hi: usize,
        write: bool,
        nbi_src: bool,
        label: &str,
    ) {
        assert!(!(write && nbi_src), "an nbi source access is a read");
        let mut g = self.inner.lock();
        let st = &g.slots[stamp.slot as usize];
        assert!(
            !st.agent && !st.joined && st.stamp == stamp.stamp(),
            "async access recorded after its effect's stamp was delivered or absorbed"
        );
        let access = Access {
            owner: stamp.slot,
            stamp: stamp.stamp(),
            write,
            nbi_src,
            range: (lo, hi),
            agent: stamp.issuer,
            label: g.pool.intern(label),
            time,
        };
        g.insert_access(loc, loc_name, access, &stamp.clock);
    }

    /// Drop the shadow state of `loc`, whose storage was freed: no access
    /// can reach it again, so nothing can race with what it retained.
    pub fn forget_location(&self, loc: u64) {
        let mut g = self.inner.lock();
        let g = &mut *g;
        if let Some(accesses) = g.shadow.remove(&loc) {
            g.retained -= accesses.len();
            for a in &accesses {
                unretain(&mut g.slots, &mut g.free_slots, a);
            }
        }
    }

    // ---- conformance ------------------------------------------------------

    /// Report that `pe` committed iteration `t`. Neighboring PEs (`pe ± 1`)
    /// must never be more than one iteration apart at commit points.
    pub fn record_iteration(&self, pe: usize, t: u64, who: &str, time: SimTime) {
        let mut g = self.inner.lock();
        for nb in [pe.wrapping_sub(1), pe + 1] {
            if nb == pe {
                continue;
            }
            if let Some(&Some((tn, who_n))) = g.iters.get(nb) {
                if t.abs_diff(tn) > 1 {
                    let who_n = g.pool.resolve(who_n);
                    g.diagnose(
                        DiagKind::IterationDivergence,
                        time,
                        format!(
                            "iteration counters diverged by {}: pe{pe} (`{who}`) at \
                             iteration {t} vs pe{nb} (`{who_n}`) at iteration {tn}",
                            t.abs_diff(tn)
                        ),
                    );
                }
            }
        }
        if pe >= g.iters.len() {
            g.iters.resize(pe + 1, None);
        }
        g.iters[pe] = Some((t, g.pool.intern(who)));
    }

    /// Report a wait that was still blocked when the simulation ended — a
    /// lost signal. Names the waiter and, when declared, the peer it
    /// expected the matching put-with-signal from.
    pub fn note_unsatisfied_wait(
        &self,
        waiter: &str,
        identity: Option<&str>,
        blocked_on: &str,
        expected_from: Option<&str>,
        time: SimTime,
    ) {
        let mut g = self.inner.lock();
        let who = match identity {
            Some(id) => format!("`{id}` (agent `{waiter}`)"),
            None => format!("agent `{waiter}`"),
        };
        let from = match expected_from {
            Some(peer) => format!(" — expected matching put-with-signal from `{peer}`"),
            None => String::new(),
        };
        g.diagnose(
            DiagKind::LostSignal,
            time,
            format!("unsatisfied signal_wait: {who} still blocked on {blocked_on}{from}"),
        );
    }

    // ---- reporting --------------------------------------------------------

    /// Clone of the structured happens-before event stream.
    pub fn events(&self) -> Vec<HbEvent> {
        self.inner.lock().events.clone()
    }

    /// Number of happens-before events recorded.
    pub fn event_count(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Clone of all diagnostics found so far.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.inner.lock().diagnostics.clone()
    }

    /// `true` when no diagnostic has been raised.
    pub fn is_clean(&self) -> bool {
        self.inner.lock().diagnostics.is_empty()
    }

    /// Total memory accesses recorded (race-checked pairs scale with this).
    pub fn access_count(&self) -> usize {
        self.inner.lock().n_accesses
    }

    /// Accesses currently kept in the shadow state, over all locations.
    pub fn retained_accesses(&self) -> usize {
        self.inner.lock().retained
    }

    /// Clock slots in use: one per agent plus one per live async effect.
    pub fn live_slots(&self) -> usize {
        let g = self.inner.lock();
        g.slots.len() - g.free_slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    /// A tracker with `n` root agents named `a0`, `a1`, ….
    fn tracker(n: usize) -> HbTracker {
        let pool = Arc::new(SymPool::new());
        let t = HbTracker::with_pool(Arc::clone(&pool));
        for i in 0..n {
            t.on_spawn(None, AgentId(i), pool.intern(&format!("a{i}")), T0);
        }
        t
    }

    #[test]
    fn vclock_join_and_order() {
        let mut a = VClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a));
        b.join(&a);
        assert!(a.le(&b));
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        let mut c = a.clone();
        c.tick(5);
        assert_ne!(a, c);
        assert!(a.le(&c));
    }

    fn access(owner: u32, stamp: u64, write: bool, range: (usize, usize)) -> Access {
        Access {
            owner,
            stamp,
            write,
            nbi_src: false,
            range,
            agent: AgentId(0),
            label: Sym::EMPTY,
            time: T0,
        }
    }

    fn clock(slots: &[(u32, u64)]) -> VClock {
        let mut c = VClock::new();
        for &(s, v) in slots {
            *c.at(s) = v;
        }
        c
    }

    #[test]
    fn epoch_hb_test() {
        // b's clock saw a's stamp -> ordered; disjoint slots -> unordered.
        let a = access(0, 2, true, (0, 4));
        let b = access(1, 1, false, (2, 6));
        assert!(a.hb(&clock(&[(0, 2), (1, 1)])));
        assert!(!b.hb(&clock(&[(0, 2)])));
        assert!(!a.hb(&clock(&[(0, 1), (2, 1)])));
        // A write covers a read or write inside its range; a read covers
        // only reads.
        assert!(access(1, 1, true, (0, 8)).covers(&a));
        assert!(!access(1, 1, true, (1, 8)).covers(&a));
        assert!(!access(1, 1, false, (0, 8)).covers(&a));
        assert!(access(1, 1, false, (0, 8)).covers(&b));
    }

    #[test]
    fn race_requires_overlap_and_write() {
        let t = tracker(3);
        let stamps: Vec<_> = (0..3).map(|i| t.async_begin(AgentId(i), T0)).collect();
        // Two unordered reads: no race.
        t.record_access_async(&stamps[0], T0, 1, "buf", 0, 4, false, false, "r1");
        t.record_access_async(&stamps[1], T0, 1, "buf", 2, 6, false, false, "r2");
        assert!(t.is_clean());
        // An unordered overlapping write races with both reads.
        t.record_access_async(&stamps[2], T0, 1, "buf", 3, 4, true, false, "w");
        let d = t.diagnostics();
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.kind == DiagKind::DataRace));
        assert!(d[0].message.contains("buf") && d[0].message.contains("`a0` (r1)"));
        assert!(d[1].message.contains("`a2` (w)"));
    }

    #[test]
    fn covered_accesses_are_dropped_and_effect_slots_recycled() {
        let t = tracker(1);
        let a = AgentId(0);
        for i in 0..5 {
            let put = t.async_begin(a, T0);
            t.record_access_async(&put, T0, 1, "src", 0, 8, false, true, "put");
            t.absorb(a, &[put], T0);
            t.record_access(a, T0, 1, "src", 0, 8, true, "refill");
            // The write covers the plain reads and writes before it, but
            // not the nbi source read: a later unordered write would race
            // that read as source reuse, and the refill only as a race.
            // Each source read covers the one before it.
            assert_eq!(t.retained_accesses(), 2, "round {i}");
        }
        assert!(t.is_clean());
        // The agent's slot, plus the effect slot of the retained read.
        assert_eq!(t.live_slots(), 2);
    }

    #[test]
    #[should_panic(expected = "after its effect's stamp was delivered or absorbed")]
    fn async_access_after_absorb_is_refused() {
        let t = tracker(1);
        let put = t.async_begin(AgentId(0), T0);
        t.absorb(AgentId(0), std::slice::from_ref(&put), T0);
        t.record_access_async(&put, T0, 1, "dst", 0, 1, true, false, "late");
    }

    #[test]
    fn iteration_divergence_detected() {
        let t = HbTracker::new();
        t.record_iteration(0, 1, "pe0", SimTime::ZERO);
        t.record_iteration(1, 2, "pe1", SimTime::ZERO);
        assert!(t.is_clean());
        t.record_iteration(2, 4, "pe2", SimTime::ZERO);
        let d = t.diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DiagKind::IterationDivergence);
        assert!(d[0].message.contains("pe1") && d[0].message.contains("pe2"));
    }

    #[test]
    fn lost_signal_names_both_endpoints() {
        let t = HbTracker::new();
        t.note_unsatisfied_wait(
            "host1",
            Some("pe1"),
            "flag #3 Ge 1",
            Some("pe0"),
            SimTime::ZERO,
        );
        let d = t.diagnostics();
        assert_eq!(d[0].kind, DiagKind::LostSignal);
        assert!(d[0].message.contains("pe1") && d[0].message.contains("pe0"));
    }
}

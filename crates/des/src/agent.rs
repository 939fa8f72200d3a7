//! The agent-side API: what simulated code is written against.

use crate::engine::SimError;
use crate::engine::{
    dispatch, spawn_agent, switch_to, AbortSim, BlockedInfo, Request, Shared, ShutdownUnwind,
};
use crate::intern::{Label, Sym};
use crate::stack::Context;
use crate::sync::{Barrier, Cmp, Flag, SignalOp};
use crate::time::{SimDur, SimTime};
use crate::trace::{Category, TraceSpan};
use std::panic::resume_unwind;
use std::sync::Arc;

/// Identifies an agent within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// Returned by deadline-bounded waits when the deadline expired first.
///
/// The wait is cancelled cleanly (the agent is removed from the flag /
/// barrier waiter list) and virtual time equals exactly the deadline when
/// the agent resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimedOut {
    /// The deadline that expired.
    pub deadline: SimTime,
}

/// Handle through which an agent interacts with virtual time and its peers.
///
/// Every agent runs on a stack of its own, on the thread that called
/// [`Engine::run`](crate::Engine::run). Methods that *block* (`advance`,
/// `wait_flag`, `barrier`, `yield_now`) run the scheduler on this agent's
/// stack until the next resume; if that resume is another agent's, they
/// hand off — switch to that agent's stack — and return when this agent is
/// resumed. Everything else is immediate and charges no virtual time.
///
/// Label-taking methods accept anything convertible to
/// [`Label`](crate::Label): string literals and `format!` results work
/// unchanged, while hot loops should pre-intern once via
/// [`AgentCtx::intern`] and pass the [`Sym`] to skip per-event hashing.
pub struct AgentCtx {
    shared: Arc<Shared>,
    id: AgentId,
    /// This agent's own stack.
    own: Context,
}

impl AgentCtx {
    pub(crate) fn new(shared: Arc<Shared>, id: AgentId, own: Context) -> Self {
        AgentCtx { shared, id, own }
    }

    /// This agent's id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// This agent's name.
    pub fn name(&self) -> String {
        self.shared.central.lock().agent_name(self.id).to_string()
    }

    /// Intern a string in the engine's symbol pool (no engine lock taken).
    ///
    /// Pre-intern per-iteration labels once, outside the loop, and pass the
    /// returned [`Sym`] to [`AgentCtx::busy`] / [`AgentCtx::record`].
    pub fn intern(&self, s: &str) -> Sym {
        self.shared.pool.intern(s)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.central.lock().clock
    }

    /// Apply `req` and dispatch the queue on this stack until the next
    /// resume. Unless that resume is this agent's own, switch to whatever
    /// runs next and return once this agent is resumed — or unwind if it
    /// was resumed only to be shut down.
    fn handoff(&mut self, req: Request) {
        let mut g = self.shared.central.lock();
        g.apply_request(self.id, req);
        let (g, next) = dispatch(&self.shared, g, Some(self.id));
        if next == Some(self.id) {
            return;
        }
        switch_to(&self.shared, g, self.own, next);
        if self.shared.central.lock().shutdown {
            resume_unwind(Box::new(ShutdownUnwind));
        }
    }

    /// Charge `dur` of virtual time to this agent (blocking).
    pub fn advance(&mut self, dur: SimDur) {
        if dur.is_zero() {
            return;
        }
        self.handoff(Request::Advance(dur));
    }

    /// Charge `dur` of virtual time *and* record a trace span covering it.
    ///
    /// This is the workhorse for modeled activities: compute phases, DMA
    /// initiation overheads, API call costs.
    pub fn busy<'a>(&mut self, category: Category, label: impl Into<Label<'a>>, dur: SimDur) {
        if dur.is_zero() {
            return;
        }
        let start = self.now();
        self.advance(dur);
        let end = self.now();
        self.record(category, label, start, end);
    }

    /// Reschedule after all other currently-runnable same-time work.
    pub fn yield_now(&mut self) {
        self.handoff(Request::Yield);
    }

    /// Block until `flag <cmp> value` holds (no trace span).
    pub fn wait_flag(&mut self, flag: Flag, cmp: Cmp, value: u64) {
        self.handoff(Request::WaitFlag {
            flag,
            cmp,
            value,
            deadline: None,
            expected_from: None,
        });
    }

    /// Like [`AgentCtx::wait_flag`], but annotates the wait with the identity
    /// label of the peer expected to deliver the signal (a wait-for-graph
    /// edge, see [`AgentCtx::set_identity`]). Used by deadlock / timeout
    /// diagnosis to report cycles instead of a flat blocked list.
    pub fn wait_flag_from<'a>(
        &mut self,
        flag: Flag,
        cmp: Cmp,
        value: u64,
        from: impl Into<Label<'a>>,
    ) {
        let from = from.into().intern(&self.shared.pool);
        self.handoff(Request::WaitFlag {
            flag,
            cmp,
            value,
            deadline: None,
            expected_from: Some(from),
        });
    }

    /// Block until `flag <cmp> value` holds, or until the virtual-time
    /// `deadline` expires — whichever comes first.
    ///
    /// On timeout the agent resumes at exactly `deadline` (never later) with
    /// `Err(WaitTimedOut)`, and is removed from the flag's waiter list. An
    /// unexpired deadline never perturbs virtual time.
    pub fn wait_flag_until(
        &mut self,
        flag: Flag,
        cmp: Cmp,
        value: u64,
        deadline: SimTime,
    ) -> Result<(), WaitTimedOut> {
        self.handoff(Request::WaitFlag {
            flag,
            cmp,
            value,
            deadline: Some(deadline),
            expected_from: None,
        });
        if self.shared.central.lock().take_timed_out(self.id) {
            Err(WaitTimedOut { deadline })
        } else {
            Ok(())
        }
    }

    /// Block until `flag <cmp> value` holds, recording the wait as a span.
    pub fn wait_flag_traced<'a>(
        &mut self,
        flag: Flag,
        cmp: Cmp,
        value: u64,
        category: Category,
        label: impl Into<Label<'a>>,
    ) {
        let start = self.now();
        self.wait_flag(flag, cmp, value);
        let end = self.now();
        self.record(category, label, start, end);
    }

    /// Arrive at an N-party barrier and block until all parties arrive.
    pub fn barrier(&mut self, barrier: Barrier) {
        self.handoff(Request::Barrier {
            barrier,
            deadline: None,
        });
    }

    /// Arrive at a barrier, but give up (withdraw the arrival) if the
    /// barrier has not released by `deadline`. On timeout the agent is
    /// removed from the barrier's arrival list, so a later re-arrival starts
    /// fresh — engine barriers keep no round memory.
    pub fn barrier_until(
        &mut self,
        barrier: Barrier,
        deadline: SimTime,
    ) -> Result<(), WaitTimedOut> {
        self.handoff(Request::Barrier {
            barrier,
            deadline: Some(deadline),
        });
        if self.shared.central.lock().take_timed_out(self.id) {
            Err(WaitTimedOut { deadline })
        } else {
            Ok(())
        }
    }

    /// Declare this agent's logical identity (e.g. `"pe3"`), the node label
    /// used in wait-for-graph diagnostics.
    pub fn set_identity<'a>(&self, identity: impl Into<Label<'a>>) {
        let identity = identity.into().intern(&self.shared.pool);
        self.shared.central.lock().set_identity(self.id, identity);
    }

    /// Snapshot of every live blocked agent (for watchdog agents).
    pub fn blocked_agents(&self) -> Vec<BlockedInfo> {
        self.shared.central.lock().blocked_snapshot()
    }

    /// Current wait-for cycle among blocked agents, if any (agent names).
    pub fn wait_cycle(&self) -> Vec<String> {
        self.shared.central.lock().wait_cycle()
    }

    /// Build an attributed [`SimError::Timeout`] from this agent's view,
    /// capturing the current wait-for cycle. Pair with [`AgentCtx::abort`].
    pub fn timeout_error(&self, waiting_on: impl Into<String>, deadline: SimTime) -> SimError {
        let g = self.shared.central.lock();
        SimError::Timeout {
            time: g.clock,
            agent: g.agent_name(self.id).to_string(),
            waiting_on: waiting_on.into(),
            deadline,
            cycle: g.wait_cycle(),
        }
    }

    /// Abort the whole simulation with a structured error.
    ///
    /// The error surfaces as the `Err` of [`Engine::run`](crate::Engine::run)
    /// (not as an `AgentPanic`); every other agent is unwound.
    /// This is how watchdogs convert silent hangs into attributed diagnoses.
    pub fn abort(&self, err: SimError) -> ! {
        resume_unwind(Box::new(AbortSim(err)))
    }

    /// Apply a signal to a flag *now* (non-blocking, zero virtual time).
    pub fn signal(&self, flag: Flag, op: SignalOp, value: u64) {
        let mut g = self.shared.central.lock();
        let at = g.clock;
        let stamp =
            g.hb.clone()
                .map(|hb| hb.on_schedule_signal(self.id, flag, at));
        g.apply_signal(flag, op, value, at, stamp);
    }

    /// Schedule a signal to apply after `delay` (e.g. a DMA completion).
    ///
    /// When happens-before tracking is enabled the delivery carries this
    /// agent's clock at issue time: waiters inherit order from the issuer.
    pub fn schedule_signal(&self, flag: Flag, op: SignalOp, value: u64, delay: SimDur) {
        let mut g = self.shared.central.lock();
        let t = g.clock + delay;
        let at = g.clock;
        let stamp =
            g.hb.clone()
                .map(|hb| hb.on_schedule_signal(self.id, flag, at));
        g.push_signal(t, flag, op, value, stamp);
    }

    /// Schedule a signal whose delivery carries an explicit happens-before
    /// stamp — the clock of an asynchronous effect obtained from
    /// [`HbTracker::async_begin`](crate::hb::HbTracker::async_begin).
    ///
    /// Used by the NVSHMEM-style transports: a put-with-signal's completion
    /// signal must carry the *put's* clock (issue clock plus the effect's
    /// own component), so that consumers who synchronize through the signal
    /// are ordered after the delivered data while the issuer itself is not.
    pub fn schedule_signal_with_stamp(
        &self,
        flag: Flag,
        op: SignalOp,
        value: u64,
        delay: SimDur,
        stamp: crate::hb::AsyncClock,
    ) {
        let mut g = self.shared.central.lock();
        let t = g.clock + delay;
        g.push_signal(t, flag, op, value, Some(stamp));
    }

    /// Schedule a side-effect closure to run after `delay`.
    ///
    /// Used to materialize asynchronous effects at their completion time —
    /// e.g. a DMA engine writing transferred bytes into the destination
    /// buffer. The closure runs on whichever stack holds the token when it
    /// falls due (any agent's, or the caller's of [`Engine::run`]) and must not
    /// call back into the engine; a panic in it unwinds out of `Engine::run`
    /// with its own payload. Pair it with [`AgentCtx::schedule_signal`] (the
    /// call is executed before a signal scheduled afterwards at equal time).
    ///
    /// [`Engine::run`]: crate::Engine::run
    pub fn schedule_call(&self, delay: SimDur, f: impl FnOnce() + Send + 'static) {
        let mut g = self.shared.central.lock();
        let t = g.clock + delay;
        g.push_call(t, Box::new(f));
    }

    /// Read a flag's current value (non-blocking).
    pub fn flag_value(&self, flag: Flag) -> u64 {
        self.shared.central.lock().flag_value(flag)
    }

    /// Allocate a new flag from agent context.
    pub fn new_flag(&self, init: u64) -> Flag {
        self.shared.central.lock().new_flag(init)
    }

    /// Allocate a new barrier from agent context.
    pub fn new_barrier(&self, parties: usize) -> Barrier {
        self.shared.central.lock().new_barrier(parties)
    }

    /// Spawn a child agent, runnable at the current virtual time.
    pub fn spawn<'a, F>(&self, name: impl Into<Label<'a>>, f: F) -> AgentId
    where
        F: FnOnce(&mut AgentCtx) + Send + 'static,
    {
        let name = name.into().intern(&self.shared.pool);
        spawn_agent(&self.shared, name, Some(self.id), f)
    }

    /// The engine's happens-before tracker, when enabled.
    pub fn hb(&self) -> Option<std::sync::Arc<crate::hb::HbTracker>> {
        self.shared.central.lock().hb.clone()
    }

    /// Record an arbitrary span (for activities whose time was charged
    /// elsewhere, e.g. a DMA that completed via `schedule_signal`).
    ///
    /// Allocation-free when `label` is a pre-interned [`Sym`] or an
    /// already-known string: the span stores 4-byte keys, not text.
    pub fn record<'a>(
        &self,
        category: Category,
        label: impl Into<Label<'a>>,
        start: SimTime,
        end: SimTime,
    ) {
        // Intern before taking the central lock (the pool has its own).
        let label = label.into().intern(&self.shared.pool);
        let mut g = self.shared.central.lock();
        let agent_name = g.agent_name_sym(self.id);
        g.record_span(TraceSpan {
            agent: self.id,
            agent_name,
            start,
            end,
            category,
            label,
        });
    }
}

//! Opt-in correctness checker: happens-before race detection and CPU-Free
//! protocol conformance over a [`Machine`](crate::Machine) run.
//!
//! The checker is a thin machine-level facade over the engine's
//! [`HbTracker`]: it keys locations by [`Buf`] allocation identity and
//! forwards memory effects (kernel reads/writes, put payloads, checkpoint
//! copies) together with the agent's vector clock. Synchronization edges
//! (signals, waits, barriers, spawns) are recorded automatically by the
//! engine once tracking is enabled; only *memory effects* need explicit
//! annotation, via [`Checker::record`] / [`Checker::record_async`] or the
//! `KernelCtx::check_read` / `check_write` convenience hooks.
//!
//! Enable with [`Machine::with_checker`](crate::Machine::with_checker)
//! before spawning hosts. Tier-1 runs never enable it, so the default cost
//! is a skipped `Option` check per machine operation.

use crate::mem::Buf;
use sim_des::{AgentCtx, AsyncClock, BlockedInfo, Diagnostic, HbEvent, HbTracker, SimTime};
use std::fmt;
use std::sync::Arc;

/// Summary of a checked run: diagnostics plus volume counters.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Every diagnostic raised (races, protocol violations); empty = clean.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of happens-before events recorded.
    pub events: usize,
    /// Number of memory accesses race-checked.
    pub accesses: usize,
    /// Accesses still kept in the checker's shadow state at the end.
    pub retained_accesses: usize,
    /// Vector-clock slots still live at the end (agents plus in-flight
    /// async effects).
    pub live_slots: usize,
}

impl CheckReport {
    /// `true` when no diagnostic was raised.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checker: {} diagnostic(s), {} hb event(s), {} access(es)",
            self.diagnostics.len(),
            self.events,
            self.accesses
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Machine-level handle to the happens-before / conformance tracker.
///
/// Obtained from [`Machine::checker`](crate::Machine::checker) after
/// enabling with [`Machine::with_checker`](crate::Machine::with_checker).
/// All methods are safe to call from any agent.
pub struct Checker {
    hb: Arc<HbTracker>,
}

impl Checker {
    pub(crate) fn new(hb: Arc<HbTracker>) -> Self {
        Checker { hb }
    }

    /// The underlying engine-level tracker.
    pub fn hb(&self) -> &Arc<HbTracker> {
        &self.hb
    }

    /// Record a synchronous read or write of `buf[lo..hi]` by the calling
    /// agent, stamped with its current vector clock.
    pub fn record(
        &self,
        agent: &AgentCtx,
        buf: &Buf,
        lo: usize,
        hi: usize,
        write: bool,
        label: &str,
    ) {
        self.hb.record_access(
            agent.id(),
            agent.now(),
            buf.raw_key(),
            buf.name(),
            lo,
            hi,
            write,
            label,
        );
    }

    /// Begin an asynchronous effect (an `nbi` put): returns the stamp whose
    /// token orders the in-flight accesses. Thread the stamp through to the
    /// delivery signal and absorb it on completion (quiet).
    pub fn async_begin(&self, agent: &AgentCtx) -> AsyncClock {
        self.hb.async_begin(agent.id(), agent.now())
    }

    /// Record a read or write performed *by* an asynchronous effect (DMA),
    /// stamped with the issuing clock plus the effect's own slot. `nbi_src`
    /// marks the in-flight source read of an `nbi` put, so a conflicting
    /// reuse is classified as source-buffer reuse rather than a plain race.
    /// Record every access of an effect before its completion signal is
    /// delivered or it is absorbed.
    #[allow(clippy::too_many_arguments)]
    pub fn record_async(
        &self,
        stamp: &AsyncClock,
        time: SimTime,
        buf: &Buf,
        lo: usize,
        hi: usize,
        write: bool,
        nbi_src: bool,
        label: &str,
    ) {
        self.hb.record_access_async(
            stamp,
            time,
            buf.raw_key(),
            buf.name(),
            lo,
            hi,
            write,
            nbi_src,
            label,
        );
    }

    /// Absorb completed asynchronous effects into the calling agent's clock
    /// (the `quiet` edge): the agent's subsequent accesses happen-after the
    /// absorbed effects.
    pub fn absorb(&self, agent: &AgentCtx, effects: &[AsyncClock]) {
        self.hb.absorb(agent.id(), effects, agent.now());
    }

    /// The allocation `raw_key` was freed: drop its shadow state.
    pub(crate) fn release(&self, raw_key: u64) {
        self.hb.forget_location(raw_key);
    }

    /// Report PE `pe` committing iteration `t`; neighboring PEs must never
    /// diverge by more than one iteration under the CPU-Free protocols.
    pub fn iteration(&self, pe: usize, t: u64, who: &str, time: SimTime) {
        self.hb.record_iteration(pe, t, who, time);
    }

    /// Convert still-blocked waits (after a deadlock/timeout) into
    /// lost-signal diagnostics naming both endpoints.
    pub fn note_blocked(&self, blocked: &[BlockedInfo], time: SimTime) {
        for b in blocked {
            self.hb.note_unsatisfied_wait(
                &b.name,
                b.identity.as_deref(),
                &b.blocked_on,
                b.waiting_for.as_deref(),
                time,
            );
        }
    }

    /// Clone of the happens-before event stream, in execution order.
    pub fn events(&self) -> Vec<HbEvent> {
        self.hb.events()
    }

    /// Clone of all diagnostics raised so far.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.hb.diagnostics()
    }

    /// `true` when no diagnostic has been raised.
    pub fn is_clean(&self) -> bool {
        self.hb.is_clean()
    }

    /// Snapshot report (normally read after `Machine::run`).
    pub fn report(&self) -> CheckReport {
        CheckReport {
            diagnostics: self.hb.diagnostics(),
            events: self.hb.event_count(),
            accesses: self.hb.access_count(),
            retained_accesses: self.hb.retained_accesses(),
            live_slots: self.hb.live_slots(),
        }
    }
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("clean", &self.is_clean())
            .finish()
    }
}

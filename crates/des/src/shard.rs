//! Conservative intra-run parallel simulation: one run across all cores.
//!
//! [`ShardedEngine`] partitions the agents of a single simulation into
//! *shards*, each backed by its own serial [`Engine`] (own slab event
//! queue, own scheduling token), and executes the shards concurrently
//! under a classic conservative synchronization protocol (Chandy–Misra
//! with a safe-horizon barrier, à la bounded lag):
//!
//! 1. Every cross-shard interaction is a timestamped message sent through
//!    an [`XPort`] with a declared minimum `delay >= lookahead` — for
//!    GPU-fabric workloads the lookahead is the smallest cross-shard link
//!    latency of the topology (see `gpu_sim::Topology::partition_lookahead`).
//! 2. Each window, the coordinator computes the global safe horizon
//!    `H = min(next event time over all shards) + lookahead`. Any message
//!    produced during the window is sent at `t >= min_next` and arrives at
//!    `t + delay >= H`, so every event strictly before `H` is safe to
//!    execute without hearing from any other shard.
//! 3. All shards run their windows concurrently ([`Engine::run_until`]),
//!    then the coordinator drains the outboxes, sorts messages by the
//!    shard-count-independent key `(time, sender, sequence)`, injects them
//!    ([`Engine::inject_signal_at`]), and advances the horizon.
//!
//! # Determinism
//!
//! Virtual end time, total event count, merged trace, and flag values are
//! **bit-identical at every shard count**, and identical to the same
//! protocol written against a single serial [`Engine`] (the differential
//! suites assert this byte-for-byte):
//!
//! * message timestamps depend only on issue time and declared delay,
//!   never on wall-clock interleaving;
//! * same-arrival-time deliveries are ordered by `(sender, sequence)`,
//!   where senders are numbered by global spawn order — a key that does
//!   not change when the partition changes;
//! * merged outputs ([`ShardedEngine::merged_trace`],
//!   [`ShardedEngine::merged_diagnostics`], deadlock reports) are sorted
//!   by virtual time and agent *name*, never by shard or local id.
//!
//! The lookahead must be a strict lower bound on every cross-shard delay;
//! [`XPort::send`] enforces it per message and
//! [`Engine::inject_signal_at`] enforces the derived no-past-delivery
//! invariant, so a mis-declared lookahead fails loudly instead of
//! silently diverging.

use crate::agent::{AgentCtx, AgentId};
use crate::engine::{BlockedOn, Engine, RunStatus, SimError};
use crate::hb::HbTracker;
use crate::intern::Label;
use crate::sync::{Barrier, Cmp, Flag, SignalOp};
use crate::time::{SimDur, SimTime};
use crate::trace::{Trace, TraceSpan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier as HostBarrier, Mutex};

/// A flag owned by one shard, addressable from any shard.
///
/// Agents on the owning shard wait on it with the ordinary blocking API
/// (via [`RemoteFlag::local`]); agents elsewhere signal it through
/// [`XPort::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteFlag {
    /// The shard whose engine owns the flag.
    pub shard: usize,
    /// The flag within that shard's engine.
    flag: Flag,
}

impl RemoteFlag {
    /// The underlying engine flag — valid **only** inside the owning
    /// shard (local waits/reads). Cross-shard access must go through
    /// [`XPort::send`].
    pub fn local(&self) -> Flag {
        self.flag
    }
}

/// One in-flight cross-shard message: a signal application at an absolute
/// virtual time, tagged with its deterministic delivery key.
struct XMsg {
    at: SimTime,
    dst: RemoteFlag,
    op: SignalOp,
    value: u64,
    /// Global spawn index of the sender — partition-independent.
    sender: u64,
    /// Per-sender send counter — orders same-time messages from one agent.
    sn: u64,
}

/// An agent's handle for sending timestamped signals to other shards.
///
/// Created by [`ShardedEngine::spawn_on`] and handed to the agent closure.
/// Same-shard destinations take the ordinary engine path
/// ([`AgentCtx::schedule_signal`]); cross-shard destinations are buffered
/// in the shard's outbox and delivered by the coordinator at the next
/// window boundary — by construction never earlier than the safe horizon.
pub struct XPort {
    shard: usize,
    sender: u64,
    sn: u64,
    lookahead: SimDur,
    outbox: Arc<Mutex<Vec<XMsg>>>,
}

impl XPort {
    /// Apply `op`/`value` to `dst` after `delay` of virtual time.
    ///
    /// For a cross-shard destination `delay` must be at least the engine's
    /// lookahead (the conservative contract); same-shard sends may use any
    /// delay. Panics on a violation — an undersized delay is a modeling
    /// bug that would otherwise silently break determinism.
    pub fn send(
        &mut self,
        ctx: &AgentCtx,
        dst: RemoteFlag,
        op: SignalOp,
        value: u64,
        delay: SimDur,
    ) {
        if dst.shard == self.shard {
            ctx.schedule_signal(dst.local(), op, value, delay);
            return;
        }
        assert!(
            delay >= self.lookahead,
            "cross-shard send with delay {delay} below the declared lookahead {} — \
             the conservative horizon would be unsound",
            self.lookahead
        );
        let sn = self.sn;
        self.sn += 1;
        self.outbox.lock().unwrap().push(XMsg {
            at: ctx.now() + delay,
            dst,
            op,
            value,
            sender: self.sender,
            sn,
        });
    }

    /// The engine-wide conservative lookahead this port enforces.
    pub fn lookahead(&self) -> SimDur {
        self.lookahead
    }

    /// The shard this port's agent runs on.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// A partitioned simulation: `S` serial engines coupled by a conservative
/// safe-horizon coordinator. See the module docs for the protocol.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    lookahead: SimDur,
    outboxes: Vec<Arc<Mutex<Vec<XMsg>>>>,
    next_global: u64,
    /// Per-shard map from local flag index to the global allocation index
    /// (= `flag_on` call order), used to render partition-independent
    /// deadlock reports.
    flag_ids: Vec<Vec<(usize, usize)>>,
    /// Same for barriers (`barrier_on` call order).
    barrier_ids: Vec<Vec<(usize, usize)>>,
    next_flag: usize,
    next_barrier: usize,
    /// Count of cross-shard deliveries performed (diagnostic only).
    delivered: AtomicU64,
}

impl ShardedEngine {
    /// Create `shards` engines coupled with the given conservative
    /// `lookahead` (the minimum virtual-time delay of any cross-shard
    /// message — for topology-partitioned workloads, the smallest
    /// cross-region link latency).
    ///
    /// Panics if `shards == 0` or the lookahead is zero (a zero lookahead
    /// admits no safe horizon: the window could never advance).
    pub fn new(shards: usize, lookahead: SimDur) -> ShardedEngine {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            !lookahead.is_zero(),
            "conservative execution needs a nonzero lookahead"
        );
        ShardedEngine {
            shards: (0..shards).map(|_| Engine::new()).collect(),
            lookahead,
            outboxes: (0..shards)
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect(),
            next_global: 0,
            flag_ids: vec![Vec::new(); shards],
            barrier_ids: vec![Vec::new(); shards],
            next_flag: 0,
            next_barrier: 0,
            delivered: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead the coordinator windows on.
    pub fn lookahead(&self) -> SimDur {
        self.lookahead
    }

    /// Allocate a flag owned by `shard`.
    ///
    /// Like [`ShardedEngine::spawn_on`], call order defines a global flag
    /// numbering used for partition-independent diagnostics — allocate
    /// flags in the same order at every shard count.
    pub fn flag_on(&mut self, shard: usize, init: u64) -> RemoteFlag {
        let flag = self.shards[shard].flag(init);
        self.flag_ids[shard].push((flag.0, self.next_flag));
        self.next_flag += 1;
        RemoteFlag { shard, flag }
    }

    /// Allocate an N-party barrier local to `shard` (barriers never span
    /// shards; cross-shard rendezvous is built from messages).
    pub fn barrier_on(&mut self, shard: usize, parties: usize) -> Barrier {
        let b = self.shards[shard].barrier(parties);
        self.barrier_ids[shard].push((b.0, self.next_barrier));
        self.next_barrier += 1;
        b
    }

    /// Current value of a flag (normally read after [`ShardedEngine::run`]).
    pub fn flag_value(&self, flag: RemoteFlag) -> u64 {
        self.shards[flag.shard].flag_value(flag.local())
    }

    /// Enable or disable span recording on every shard.
    pub fn set_trace_enabled(&self, enabled: bool) {
        for e in &self.shards {
            e.set_trace_enabled(enabled);
        }
    }

    /// Enable happens-before tracking on every shard.
    ///
    /// Tracking is per-shard: synchronization edges inside a shard are
    /// recorded exactly as in the serial engine, while cross-shard
    /// deliveries arrive stampless (an injected message carries no vector
    /// clock). Waits satisfied by injected signals still produce
    /// wait-satisfied events, so protocol diagnostics remain comparable
    /// across shard counts.
    pub fn enable_hb(&self) -> Vec<Arc<HbTracker>> {
        self.shards.iter().map(|e| e.enable_hb()).collect()
    }

    /// Seed the wake-order perturbation on every shard (see
    /// [`Engine::set_wake_jitter`]).
    pub fn set_wake_jitter(&self, seed: u64) {
        for e in &self.shards {
            e.set_wake_jitter(seed);
        }
    }

    /// Spawn an agent on `shard`. The closure receives the agent context
    /// plus its [`XPort`] for cross-shard sends.
    ///
    /// Call order defines the global sender numbering used to tie-break
    /// same-time message deliveries, so spawn agents in the same order at
    /// every shard count (partition placement may differ freely).
    pub fn spawn_on<'a, F>(&mut self, shard: usize, name: impl Into<Label<'a>>, f: F) -> AgentId
    where
        F: FnOnce(&mut AgentCtx, &mut XPort) + Send + 'static,
    {
        let sender = self.next_global;
        self.next_global += 1;
        let mut port = XPort {
            shard,
            sender,
            sn: 0,
            lookahead: self.lookahead,
            outbox: Arc::clone(&self.outboxes[shard]),
        };
        self.shards[shard].spawn(name, move |ctx| f(ctx, &mut port))
    }

    /// Total events processed across all shards (queue pops — the same
    /// throughput unit as [`Engine::events_processed`]).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|e| e.events_processed()).sum()
    }

    /// Cross-shard messages delivered so far (diagnostic; counts only
    /// mailbox deliveries, not same-shard sends).
    pub fn cross_messages(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Drive all shards to completion, one host worker thread per shard.
    ///
    /// Returns the final virtual time (the maximum over shards), or the
    /// first error by shard index. On error every shard is shut down so no
    /// agent thread leaks. A global deadlock (no events anywhere, no
    /// messages in flight, live agents remain) is reported with the
    /// blocked agents of *all* shards, sorted by agent name so the report
    /// is identical at every shard count.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        let s = self.shards.len();
        // Worker control: one start and one end rendezvous per window.
        let start = HostBarrier::new(s + 1);
        let end = HostBarrier::new(s + 1);
        // Horizon for the current window; `None` tells workers to exit.
        let horizon: Mutex<Option<SimTime>> = Mutex::new(None);
        let status: Vec<Mutex<Option<Result<RunStatus, SimError>>>> =
            (0..s).map(|_| Mutex::new(None)).collect();

        let result = std::thread::scope(|scope| {
            for (i, engine) in self.shards.iter().enumerate() {
                let (start, end, horizon, status) = (&start, &end, &horizon, &status[i]);
                scope.spawn(move || loop {
                    start.wait();
                    let Some(h) = *horizon.lock().unwrap() else {
                        return;
                    };
                    let r = engine.run_until(h);
                    *status.lock().unwrap() = Some(r);
                    end.wait();
                });
            }

            let outcome = loop {
                // Safe horizon: earliest pending event anywhere + lookahead.
                // (Outboxes are always drained before this point, so every
                // in-flight message is already an engine event.)
                let min_next = self.shards.iter().filter_map(|e| e.next_event_time()).min();
                let Some(min_next) = min_next else {
                    let live: usize = self.shards.iter().map(|e| e.live_agents()).sum();
                    if live == 0 {
                        break Ok(self.max_clock());
                    }
                    break Err(self.global_deadlock());
                };
                *horizon.lock().unwrap() = Some(min_next + self.lookahead);
                start.wait();
                end.wait();
                let mut err = None;
                for st in &status {
                    match st.lock().unwrap().take() {
                        Some(Ok(_)) => {}
                        Some(Err(e)) => {
                            err = Some(e);
                            break;
                        }
                        None => unreachable!("worker missed its window"),
                    }
                }
                if let Some(e) = err {
                    break Err(e);
                }
                self.deliver_messages();
            };
            // Release the workers to exit, whatever the outcome.
            *horizon.lock().unwrap() = None;
            start.wait();
            outcome
        });
        if result.is_err() {
            for e in &self.shards {
                e.shutdown();
            }
        }
        result
    }

    /// Drain every outbox and inject the messages in deterministic order:
    /// `(arrival time, global sender, per-sender sequence)` — a key that is
    /// independent of the partition and of wall-clock interleaving.
    fn deliver_messages(&self) {
        let mut msgs: Vec<XMsg> = Vec::new();
        for ob in &self.outboxes {
            msgs.append(&mut ob.lock().unwrap());
        }
        if msgs.is_empty() {
            return;
        }
        msgs.sort_by_key(|m| (m.at, m.sender, m.sn));
        self.delivered
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        for m in msgs {
            self.shards[m.dst.shard].inject_signal_at(m.at, m.dst.local(), m.op, m.value);
        }
    }

    /// Maximum engine clock over all shards — the virtual end time of the
    /// partitioned run (every event executes in exactly one shard, so this
    /// equals the serial end time).
    fn max_clock(&self) -> SimTime {
        self.shards
            .iter()
            .map(|e| e.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Canonical global deadlock: blocked lines from every shard with flag
    /// and barrier ids rewritten to the global (allocation-order)
    /// numbering, sorted by text — the report does not depend on the
    /// partition. Wait-for cycles may span shards and are not
    /// reconstructed here.
    fn global_deadlock(&self) -> SimError {
        let mut blocked: Vec<String> = Vec::new();
        for (i, e) in self.shards.iter().enumerate() {
            for (name, target) in e.blocked_details() {
                let desc = match target {
                    Some(BlockedOn::Flag { flag, cmp, value }) => {
                        let g = lookup(&self.flag_ids[i], flag.0);
                        format!("flag #{g} {cmp:?} {value}")
                    }
                    Some(BlockedOn::Barrier(b)) => {
                        format!("barrier #{}", lookup(&self.barrier_ids[i], b.0))
                    }
                    None => "(unknown wait)".to_string(),
                };
                blocked.push(format!("{name}: {desc}"));
            }
        }
        blocked.sort();
        SimError::Deadlock {
            time: self.max_clock(),
            blocked,
            cycle: Vec::new(),
        }
    }

    /// Merge every shard's trace into one canonical trace.
    ///
    /// Spans are sorted by `(start, end, agent name, category, label)` and
    /// re-interned into a fresh pool in that order; merged agent ids are
    /// assigned by first appearance of the agent name. The result is
    /// byte-stable across shard counts and across runs.
    pub fn merged_trace(&self) -> Trace {
        /// A span resolved to owned strings: the partition-independent
        /// sort key `(start, end, agent name, category, label)`.
        type ResolvedSpan = (SimTime, SimTime, Arc<str>, crate::trace::Category, Arc<str>);
        let mut rows: Vec<ResolvedSpan> = self
            .shards
            .iter()
            .flat_map(|e| {
                let t = e.trace();
                t.spans()
                    .iter()
                    .map(|s| {
                        (
                            s.start,
                            s.end,
                            t.resolve(s.agent_name),
                            s.category,
                            t.resolve(s.label),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by(|a, b| (a.0, a.1, &*a.2, a.3, &*a.4).cmp(&(b.0, b.1, &*b.2, b.3, &*b.4)));
        let mut merged = Trace::new();
        let mut agent_ids: Vec<Arc<str>> = Vec::new();
        for (start, end, agent_name, category, label) in rows {
            let id = match agent_ids.iter().position(|n| **n == *agent_name) {
                Some(i) => i,
                None => {
                    agent_ids.push(Arc::clone(&agent_name));
                    agent_ids.len() - 1
                }
            };
            let span = TraceSpan {
                agent: AgentId(id),
                agent_name: merged.intern(&agent_name),
                start,
                end,
                category,
                label: merged.intern(&label),
            };
            merged.push(span);
        }
        merged
    }

    /// Every happens-before diagnostic from every shard, rendered and
    /// sorted — canonical across shard counts (empty when clean, which is
    /// what the conformance suites assert).
    pub fn merged_diagnostics(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .shards
            .iter()
            .filter_map(|e| e.hb())
            .flat_map(|hb| {
                hb.diagnostics()
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        v.sort();
        v
    }

    /// Direct access to one shard's engine (tests, custom instrumentation).
    pub fn shard(&self, i: usize) -> &Engine {
        &self.shards[i]
    }
}

/// Map a shard-local flag/barrier index to its global allocation index.
/// Ids allocated outside [`ShardedEngine::flag_on`]/`barrier_on` (directly
/// on a shard engine) fall back to the local index.
fn lookup(map: &[(usize, usize)], local: usize) -> usize {
    map.iter()
        .find(|(l, _)| *l == local)
        .map(|(_, g)| *g)
        .unwrap_or(local)
}

/// Convenience for tests and workloads: wait on a [`RemoteFlag`] locally.
/// Panics (via the underlying engine) if called from the wrong shard is
/// not detectable; keep waits on the owning shard.
pub fn wait_remote(ctx: &mut AgentCtx, flag: RemoteFlag, cmp: Cmp, value: u64) {
    ctx.wait_flag(flag.local(), cmp, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ns, us};

    /// A two-shard ping-pong across the mailbox: end time and flag values
    /// must match the hand-computed serial schedule.
    #[test]
    fn cross_shard_pingpong_matches_serial_schedule() {
        let look = us(1.0);
        let mut eng = ShardedEngine::new(2, look);
        let fa = eng.flag_on(0, 0);
        let fb = eng.flag_on(1, 0);
        let rounds = 10u64;
        eng.spawn_on(0, "a", move |ctx, port| {
            for i in 1..=rounds {
                port.send(ctx, fb, SignalOp::Set, i, us(1.0));
                ctx.wait_flag(fa.local(), Cmp::Ge, i);
            }
        });
        eng.spawn_on(1, "b", move |ctx, port| {
            for i in 1..=rounds {
                ctx.wait_flag(fb.local(), Cmp::Ge, i);
                port.send(ctx, fa, SignalOp::Set, i, us(1.0));
            }
        });
        let end = eng.run().unwrap();
        // Each round costs one 1 µs hop in each direction.
        assert_eq!(end, SimTime::ZERO + us(2.0) * rounds);
        assert_eq!(eng.flag_value(fa), rounds);
        assert_eq!(eng.flag_value(fb), rounds);
        assert_eq!(eng.cross_messages(), 2 * rounds);
    }

    /// The same program at 1, 2 and 4 shards: end time, event count, and
    /// merged trace are bit-identical.
    fn fanout_program(shards: usize) -> (u64, u64, String) {
        let look = ns(500);
        let agents = 8usize;
        let mut eng = ShardedEngine::new(shards, look);
        let flags: Vec<RemoteFlag> = (0..agents).map(|i| eng.flag_on(i % shards, 0)).collect();
        let done = eng.flag_on(0, 0);
        for i in 0..agents {
            let me = flags[i];
            let next = flags[(i + 1) % agents];
            eng.spawn_on(i % shards, format!("w{i}"), move |ctx, port| {
                let label = ctx.intern("step");
                for r in 1..=20u64 {
                    ctx.busy(
                        crate::trace::Category::Compute,
                        label,
                        ns(700 + 13 * i as u64),
                    );
                    port.send(ctx, next, SignalOp::Add, 1, ns(500));
                    ctx.wait_flag(me.local(), Cmp::Ge, r);
                }
            });
        }
        let last = flags[0];
        eng.spawn_on(0, "watch", move |ctx, _| {
            ctx.wait_flag(last.local(), Cmp::Ge, 20);
            ctx.signal(done.local(), SignalOp::Set, 1);
        });
        let end = eng.run().unwrap();
        assert_eq!(eng.flag_value(done), 1);
        let trace = eng.merged_trace();
        let rendered: String = trace
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{} {} {} {:?} {}\n",
                    s.start,
                    s.end,
                    trace.resolve(s.agent_name),
                    s.category,
                    trace.resolve(s.label)
                )
            })
            .collect();
        (end.as_nanos(), eng.events_processed(), rendered)
    }

    #[test]
    fn shard_count_is_unobservable() {
        let base = fanout_program(1);
        for shards in [2, 4, 8] {
            assert_eq!(base, fanout_program(shards), "shards={shards} diverged");
        }
    }

    /// Same-shard sends through the port take the ordinary engine path and
    /// may use sub-lookahead delays.
    #[test]
    fn same_shard_send_ignores_lookahead() {
        let mut eng = ShardedEngine::new(2, us(5.0));
        let f = eng.flag_on(0, 0);
        eng.spawn_on(0, "local", move |ctx, port| {
            port.send(ctx, f, SignalOp::Set, 7, ns(1));
            ctx.wait_flag(f.local(), Cmp::Ge, 7);
        });
        eng.run().unwrap();
        assert_eq!(eng.flag_value(f), 7);
        assert_eq!(eng.cross_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "below the declared lookahead")]
    fn undersized_cross_shard_delay_panics() {
        let mut eng = ShardedEngine::new(2, us(5.0));
        let f = eng.flag_on(1, 0);
        eng.spawn_on(0, "bad", move |ctx, port| {
            port.send(ctx, f, SignalOp::Set, 1, ns(10));
        });
        // The panic surfaces as an AgentPanic; unwrap to re-raise the text.
        let err = eng.run().unwrap_err();
        panic!("{err}");
    }

    #[test]
    fn global_deadlock_is_canonical_across_shard_counts() {
        fn run(shards: usize) -> String {
            let mut eng = ShardedEngine::new(shards, us(1.0));
            let fa = eng.flag_on(0, 0);
            let fb = eng.flag_on(shards - 1, 0);
            eng.spawn_on(0, "left", move |ctx, _| {
                ctx.wait_flag(fa.local(), Cmp::Ge, 1);
            });
            eng.spawn_on(shards - 1, "right", move |ctx, _| {
                ctx.advance(us(3.0));
                ctx.wait_flag(fb.local(), Cmp::Ge, 1);
            });
            eng.run().unwrap_err().to_string()
        }
        let serial = run(1);
        assert!(serial.contains("deadlock"), "got: {serial}");
        assert_eq!(serial, run(2));
    }

    /// Pending cross-shard messages keep an otherwise-idle shard alive: a
    /// receiver whose queue is empty is NOT a deadlock while a message is
    /// on its way.
    #[test]
    fn in_flight_message_prevents_false_deadlock() {
        let mut eng = ShardedEngine::new(2, us(1.0));
        let f = eng.flag_on(1, 0);
        eng.spawn_on(0, "sender", move |ctx, port| {
            ctx.advance(us(50.0));
            port.send(ctx, f, SignalOp::Set, 1, us(2.0));
        });
        eng.spawn_on(1, "receiver", move |ctx, _| {
            ctx.wait_flag(f.local(), Cmp::Ge, 1);
            assert_eq!(ctx.now(), SimTime::ZERO + us(52.0));
        });
        let end = eng.run().unwrap();
        assert_eq!(end, SimTime::ZERO + us(52.0));
    }

    #[test]
    fn empty_shards_are_tolerated() {
        let mut eng = ShardedEngine::new(4, us(1.0));
        let f = eng.flag_on(0, 0);
        eng.spawn_on(0, "only", move |ctx, _| {
            ctx.advance(us(1.0));
            ctx.signal(f.local(), SignalOp::Set, 1);
        });
        assert_eq!(eng.run().unwrap(), SimTime::ZERO + us(1.0));
    }

    /// An agent panic in any shard surfaces as the run error and every
    /// other shard is torn down (no leaked threads, no hang).
    #[test]
    fn agent_panic_tears_down_all_shards() {
        let mut eng = ShardedEngine::new(2, us(1.0));
        let f = eng.flag_on(0, 0);
        eng.spawn_on(0, "waiter", move |ctx, _| {
            ctx.wait_flag(f.local(), Cmp::Ge, 1);
        });
        eng.spawn_on(1, "boom", move |ctx, _| {
            ctx.advance(us(1.0));
            panic!("injected");
        });
        match eng.run() {
            Err(SimError::AgentPanic { agent, message }) => {
                assert_eq!(agent, "boom");
                assert!(message.contains("injected"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }
}

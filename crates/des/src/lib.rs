//! # sim-des — deterministic virtual-time discrete-event engine
//!
//! The substrate every other crate in this workspace runs on. It provides:
//!
//! * a **virtual clock** with nanosecond resolution ([`SimTime`], [`SimDur`]);
//! * **agents** — imperative simulated routines written as plain closures,
//!   each on a stack of its own, all on the thread that runs the engine and
//!   scheduled strictly one-at-a-time for full determinism: a blocking
//!   agent runs the scheduler itself and switches straight to the next
//!   agent's stack ([`Engine::spawn`], [`AgentCtx`]);
//! * **flags** (64-bit signal cells with comparison waits, mirroring the
//!   NVSHMEM signaling API) and reusable **barriers** (mirroring CUDA
//!   cooperative-groups `grid.sync()`);
//! * serialized **resources** — virtual-time occupancy bookkeeping for
//!   shared channels (interconnect links), so concurrent transfers on the
//!   same hop queue instead of overlapping for free ([`Resource`]);
//! * **span traces** with overlap analysis — the simulator's replacement for
//!   Nsight timelines ([`Trace`]);
//! * **deadlock detection** with per-agent diagnostics, used by the failure
//!   injection tests.
//!
//! See the crate-level docs of `gpu-sim` for how a multi-GPU node is modeled
//! on top of these primitives.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod batch;
pub mod chaos;
mod engine;
pub mod fault;
pub mod hb;
pub mod intern;
pub mod json;
pub mod lock;
mod resource;
// The one module with `unsafe` code: agent stacks and the switch routine.
#[allow(unsafe_code)]
mod stack;
mod sync;
mod time;
pub mod trace;

pub use agent::{AgentCtx, AgentId, WaitTimedOut};
pub use batch::{default_jobs, env_jobs, par_map};
pub use chaos::{classify_error, shrink, ChaosOutcome, FaultAtom};
pub use engine::{BlockedInfo, Engine, SimError};
pub use fault::{mix64, CrashFault, DropFault, FaultPlan, FaultState, LinkFault, StragglerFault};
pub use hb::{AsyncClock, DiagKind, Diagnostic, HbEvent, HbEventKind, HbTracker, VClock};
pub use intern::{Label, Sym, SymPool};
pub use json::Json;
pub use resource::{Reservation, Resource, ResourceStats};
pub use sync::{Barrier, Cmp, Flag, SignalOp};
pub use time::{ms, ns, us, SimDur, SimTime};
pub use trace::{Category, Trace, TraceSpan};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_engine_finishes_at_zero() {
        let engine = Engine::new();
        assert_eq!(engine.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_agent_advances_clock() {
        let engine = Engine::new();
        engine.spawn("a", |ctx| {
            ctx.advance(us(10.0));
            ctx.advance(us(5.0));
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(15.0));
    }

    #[test]
    fn two_agents_interleave_deterministically() {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("fast", move |ctx| {
            ctx.advance(us(1.0));
            ctx.signal(f, SignalOp::Add, 1);
            ctx.advance(us(1.0));
            ctx.signal(f, SignalOp::Add, 1);
        });
        engine.spawn("watcher", move |ctx| {
            ctx.wait_flag(f, Cmp::Ge, 2);
            assert_eq!(ctx.now(), SimTime::ZERO + us(2.0));
        });
        engine.run().unwrap();
        assert_eq!(engine.flag_value(f), 2);
    }

    #[test]
    fn wait_already_satisfied_does_not_block() {
        let engine = Engine::new();
        let f = engine.flag(7);
        engine.spawn("a", move |ctx| {
            ctx.wait_flag(f, Cmp::Ge, 5);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        engine.run().unwrap();
    }

    #[test]
    fn scheduled_signal_fires_later() {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("dma", move |ctx| {
            ctx.schedule_signal(f, SignalOp::Set, 1, us(30.0));
        });
        engine.spawn("waiter", move |ctx| {
            ctx.wait_flag(f, Cmp::Eq, 1);
            assert_eq!(ctx.now(), SimTime::ZERO + us(30.0));
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(30.0));
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let engine = Engine::new();
        let b = engine.barrier(3);
        for (i, delay) in [3.0, 9.0, 6.0].into_iter().enumerate() {
            engine.spawn(format!("tb{i}"), move |ctx| {
                ctx.advance(us(delay));
                ctx.barrier(b);
                assert_eq!(ctx.now(), SimTime::ZERO + us(9.0));
            });
        }
        engine.run().unwrap();
    }

    #[test]
    fn barrier_is_reusable_across_iterations() {
        let engine = Engine::new();
        let b = engine.barrier(2);
        for i in 0..2 {
            engine.spawn(format!("a{i}"), move |ctx| {
                for iter in 1..=5u64 {
                    ctx.advance(us(1.0 + i as f64));
                    ctx.barrier(b);
                    // Slower agent (2 µs) gates each round.
                    assert_eq!(ctx.now(), SimTime::ZERO + us(2.0) * iter);
                }
            });
        }
        engine.run().unwrap();
    }

    #[test]
    fn deadlock_is_detected_with_diagnostics() {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("stuck", move |ctx| {
            ctx.wait_flag(f, Cmp::Ge, 1); // nobody ever signals
        });
        match engine.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert!(blocked[0].contains("stuck"));
                assert!(blocked[0].contains("flag"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn barrier_short_party_deadlocks() {
        let engine = Engine::new();
        let b = engine.barrier(2);
        engine.spawn("alone", move |ctx| ctx.barrier(b));
        assert!(matches!(engine.run(), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn agent_panic_is_reported() {
        let engine = Engine::new();
        engine.spawn("boom", |_ctx| panic!("injected failure"));
        match engine.run() {
            Err(SimError::AgentPanic { agent, message }) => {
                assert_eq!(agent, "boom");
                assert!(message.contains("injected failure"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn nested_spawn_runs_child() {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("parent", move |ctx| {
            ctx.advance(us(2.0));
            ctx.spawn("child", move |c| {
                assert_eq!(c.now(), SimTime::ZERO + us(2.0));
                c.advance(us(3.0));
                c.signal(f, SignalOp::Set, 42);
            });
            ctx.wait_flag(f, Cmp::Eq, 42);
            assert_eq!(ctx.now(), SimTime::ZERO + us(5.0));
        });
        engine.run().unwrap();
    }

    #[test]
    fn busy_records_trace_span() {
        let engine = Engine::new();
        engine.spawn("worker", |ctx| {
            ctx.busy(Category::Compute, "sweep", us(12.0));
        });
        engine.run().unwrap();
        let trace = engine.trace();
        assert_eq!(trace.len(), 1);
        let s = &trace.spans()[0];
        assert_eq!(s.category, Category::Compute);
        assert_eq!(s.dur(), us(12.0));
        assert_eq!(&*trace.resolve(s.agent_name), "worker");
    }

    #[test]
    fn trace_can_be_disabled() {
        let engine = Engine::new();
        engine.set_trace_enabled(false);
        engine.spawn("quiet", |ctx| ctx.busy(Category::Compute, "x", us(1.0)));
        engine.run().unwrap();
        assert!(engine.trace().is_empty());
    }

    #[test]
    fn yield_orders_same_time_work() {
        // `second` is spawned later; when `first` yields at t=0, `second`
        // (already queued) must run before `first` resumes.
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("first", move |ctx| {
            ctx.yield_now();
            assert_eq!(ctx.flag_value(f), 1);
        });
        engine.spawn("second", move |ctx| {
            ctx.signal(f, SignalOp::Set, 1);
        });
        engine.run().unwrap();
    }

    #[test]
    fn determinism_identical_end_times() {
        fn run_once() -> (u64, u64) {
            let engine = Engine::new();
            let f = engine.flag(0);
            let b = engine.barrier(4);
            for i in 0..4u64 {
                engine.spawn(format!("w{i}"), move |ctx| {
                    for iter in 0..50u64 {
                        ctx.advance(ns(100 + 37 * i + iter % 7));
                        ctx.signal(f, SignalOp::Add, 1);
                        ctx.barrier(b);
                    }
                });
            }
            let end = engine.run().unwrap();
            (end.as_nanos(), engine.flag_value(f))
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn scheduled_call_runs_before_equal_time_signal() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let engine = Engine::new();
        let f = engine.flag(0);
        let wrote = Arc::new(AtomicBool::new(false));
        let w = Arc::clone(&wrote);
        engine.spawn("dma", move |ctx| {
            // "Copy" lands at t=10, completion signal at the same instant but
            // enqueued after — waiters must observe the copy.
            ctx.schedule_call(us(10.0), move || w.store(true, Ordering::SeqCst));
            ctx.schedule_signal(f, SignalOp::Set, 1, us(10.0));
        });
        let w2 = Arc::clone(&wrote);
        engine.spawn("reader", move |ctx| {
            ctx.wait_flag(f, Cmp::Eq, 1);
            assert!(w2.load(Ordering::SeqCst), "data visible before signal");
        });
        engine.run().unwrap();
    }

    #[test]
    fn deadline_wait_times_out_at_exact_deadline() {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("bounded", move |ctx| {
            let deadline = ctx.now() + us(25.0);
            let r = ctx.wait_flag_until(f, Cmp::Ge, 1, deadline);
            assert_eq!(r, Err(WaitTimedOut { deadline }));
            // Resumes at exactly the deadline, never later.
            assert_eq!(ctx.now(), deadline);
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(25.0));
    }

    #[test]
    fn unexpired_deadline_does_not_distort_end_time() {
        // The wait completes at t=5 with a deadline at t=1000; the stale
        // timeout event must NOT drag the end time to 1000.
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("producer", move |ctx| {
            ctx.advance(us(5.0));
            ctx.signal(f, SignalOp::Set, 1);
        });
        engine.spawn("consumer", move |ctx| {
            let deadline = ctx.now() + us(1000.0);
            assert_eq!(ctx.wait_flag_until(f, Cmp::Ge, 1, deadline), Ok(()));
            assert_eq!(ctx.now(), SimTime::ZERO + us(5.0));
        });
        assert_eq!(engine.run().unwrap(), SimTime::ZERO + us(5.0));
    }

    #[test]
    fn barrier_until_withdraws_arrival_on_timeout() {
        // First arrival gives up at t=10; the partner arrives at t=20 and
        // waits; the first agent re-arrives at t=30 and both release.
        let engine = Engine::new();
        let b = engine.barrier(2);
        engine.spawn("flaky", move |ctx| {
            let r = ctx.barrier_until(b, ctx.now() + us(10.0));
            assert!(r.is_err());
            ctx.advance(us(20.0));
            ctx.barrier(b);
            assert_eq!(ctx.now(), SimTime::ZERO + us(30.0));
        });
        engine.spawn("steady", move |ctx| {
            ctx.advance(us(20.0));
            ctx.barrier(b);
            assert_eq!(ctx.now(), SimTime::ZERO + us(30.0));
        });
        engine.run().unwrap();
    }

    #[test]
    fn wait_for_cycle_is_reported_in_deadlock() {
        let engine = Engine::new();
        let fa = engine.flag(0);
        let fb = engine.flag(0);
        engine.spawn("left", move |ctx| {
            ctx.set_identity("pe0");
            ctx.wait_flag_from(fa, Cmp::Ge, 1, "pe1");
        });
        engine.spawn("right", move |ctx| {
            ctx.set_identity("pe1");
            ctx.wait_flag_from(fb, Cmp::Ge, 1, "pe0");
        });
        match engine.run() {
            Err(SimError::Deadlock { cycle, .. }) => {
                assert_eq!(cycle.len(), 2);
                assert!(cycle.contains(&"left".to_string()));
                assert!(cycle.contains(&"right".to_string()));
            }
            other => panic!("expected deadlock with cycle, got {other:?}"),
        }
    }

    #[test]
    fn abort_surfaces_structured_error() {
        let engine = Engine::new();
        engine.spawn("watchdog", move |ctx| {
            ctx.advance(us(7.0));
            let err = ctx.timeout_error("heartbeat pe2", ctx.now());
            ctx.abort(err);
        });
        engine.spawn("hung", move |ctx| {
            // Infinite busy loop the watchdog must terminate.
            loop {
                ctx.advance(us(1.0));
            }
        });
        match engine.run() {
            Err(SimError::Timeout {
                agent, waiting_on, ..
            }) => {
                assert_eq!(agent, "watchdog");
                assert!(waiting_on.contains("pe2"));
            }
            other => panic!("expected timeout abort, got {other:?}"),
        }
    }

    #[test]
    fn signal_wait_semaphore_protocol() {
        // The paper's §4.1.1 semaphore: neighbors signal availability of halo
        // for iteration t by setting the flag to t+1; waiters compare >= t+1.
        let engine = Engine::new();
        let flag_ab = engine.flag(0);
        let flag_ba = engine.flag(0);
        let iters = 20u64;
        engine.spawn("gpu_a", move |ctx| {
            for t in 1..=iters {
                ctx.advance(us(2.0));
                ctx.signal(flag_ab, SignalOp::Set, t);
                ctx.wait_flag(flag_ba, Cmp::Ge, t);
            }
        });
        engine.spawn("gpu_b", move |ctx| {
            for t in 1..=iters {
                ctx.advance(us(3.0));
                ctx.signal(flag_ba, SignalOp::Set, t);
                ctx.wait_flag(flag_ab, Cmp::Ge, t);
            }
        });
        let end = engine.run().unwrap();
        // Lock-step: the slower side (3 µs) dominates each iteration.
        assert_eq!(end, SimTime::ZERO + us(3.0) * iters);
    }
}

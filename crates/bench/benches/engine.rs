//! Microbenchmarks of the simulation substrate itself: how fast the
//! deterministic engine executes agent handoffs, signals and barriers.
//! These bound how large a figure sweep is practical.

use cpufree_bench::harness::Harness;
use sim_des::{ns, Category, Cmp, Engine, SignalOp};

fn main() {
    let h = Harness::new(20);

    h.bench("engine/advance_1000", || {
        let engine = Engine::new();
        engine.set_trace_enabled(false);
        engine.spawn("a", |ctx| {
            for _ in 0..1000 {
                ctx.advance(ns(100));
            }
        });
        engine.run().unwrap()
    });

    h.bench("engine/signal_pingpong_500", || {
        let engine = Engine::new();
        engine.set_trace_enabled(false);
        let f1 = engine.flag(0);
        let f2 = engine.flag(0);
        engine.spawn("a", move |ctx| {
            for i in 1..=500u64 {
                ctx.signal(f1, SignalOp::Set, i);
                ctx.wait_flag(f2, Cmp::Ge, i);
            }
        });
        engine.spawn("b", move |ctx| {
            for i in 1..=500u64 {
                ctx.wait_flag(f1, Cmp::Ge, i);
                ctx.signal(f2, SignalOp::Set, i);
            }
        });
        engine.run().unwrap()
    });

    h.bench("engine/barrier_8x100", || {
        let engine = Engine::new();
        engine.set_trace_enabled(false);
        let bar = engine.barrier(8);
        for i in 0..8 {
            engine.spawn(format!("w{i}"), move |ctx| {
                for _ in 0..100 {
                    ctx.advance(ns(50));
                    ctx.barrier(bar);
                }
            });
        }
        engine.run().unwrap()
    });

    // The allocation-free hot path: every span records two interned u32
    // symbols instead of two heap strings, so a trace-heavy run costs no
    // per-span allocation after the first label.
    h.bench("engine/trace_busy_4x1000", || {
        let engine = Engine::new();
        for a in 0..4u64 {
            engine.spawn(format!("agent{a}"), move |ctx| {
                let label = ctx.intern("phase");
                for _ in 0..1000 {
                    ctx.busy(Category::Compute, label, ns(100));
                }
            });
        }
        engine.run().unwrap()
    });

    // The inter-run driver: whole simulations fanned out on the pool. On a
    // multi-core box this scales with the worker count; results are
    // position-stable so the outputs are identical at every thread count.
    for jobs in [1usize, sim_des::default_jobs()] {
        h.bench(&format!("batch/pingpong_16@jobs{jobs}"), || {
            sim_des::par_map(jobs, (0..16u64).collect(), |_| {
                let engine = Engine::new();
                engine.set_trace_enabled(false);
                let f1 = engine.flag(0);
                let f2 = engine.flag(0);
                engine.spawn("a", move |ctx| {
                    for i in 1..=250u64 {
                        ctx.signal(f1, SignalOp::Set, i);
                        ctx.wait_flag(f2, Cmp::Ge, i);
                    }
                });
                engine.spawn("b", move |ctx| {
                    for i in 1..=250u64 {
                        ctx.wait_flag(f1, Cmp::Ge, i);
                        ctx.signal(f2, SignalOp::Set, i);
                    }
                });
                engine.run().unwrap()
            })
        });
    }
}

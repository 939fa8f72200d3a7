//! Failure injection: deliberately broken CPU-Free protocols must be
//! *diagnosed* by the engine — deadlock reports with agent context, or
//! panics with actionable messages — never silent hangs or wrong answers.

use cpufree::prelude::*;
use cpufree::sim_des::SimError;

fn two_pe_machine() -> (Machine, ShmemWorld) {
    let m = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full);
    let w = ShmemWorld::init(&m);
    (m, w)
}

/// Missing put: the waiter blocks forever → deadlock diagnosis names it.
#[test]
fn missing_put_is_diagnosed() {
    let (machine, world) = two_pe_machine();
    let sig = world.signal(0);
    let w = world.clone();
    let result = launch_cpu_free(&machine, "missing_put", move |pe| {
        let w = w.clone();
        let sig = sig.clone();
        vec![BlockGroup::new("comm", 1, move |k| {
            let mut sh = ShmemCtx::new(&w, k);
            if pe == 1 {
                sh.signal_wait_until(k, &sig, Cmp::Ge, 1);
            }
            // pe 0 "forgets" to put/signal.
        })]
    });
    let Err(SimError::Deadlock { blocked, .. }) = result else {
        panic!("expected deadlock, got {result:?}");
    };
    // The report names the stuck kernel agent (plus the host ranks and
    // supervisor blocked downstream of it).
    assert!(
        blocked
            .iter()
            .any(|b| b.contains("missing_put") && b.contains("flag")),
        "diagnostic: {blocked:?}"
    );
}

/// Off-by-one signal values: waiting for iteration t+1's signal when the
/// sender only ever sends t — the classic semaphore bug.
#[test]
fn off_by_one_semaphore_deadlocks() {
    let (machine, world) = two_pe_machine();
    let sig = world.signal(0);
    let w = world.clone();
    let result = launch_cpu_free(&machine, "off_by_one", move |pe| {
        let w = w.clone();
        let sig = sig.clone();
        vec![BlockGroup::new("comm", 1, move |k| {
            let mut sh = ShmemCtx::new(&w, k);
            if pe == 0 {
                sh.signal_op(k, &sig, SignalOp::Set, 1, 1);
            } else {
                // BUG: waits for 2, sender sets 1.
                sh.signal_wait_until(k, &sig, Cmp::Ge, 2);
            }
        })]
    });
    assert!(matches!(result, Err(SimError::Deadlock { .. })));
}

/// Mismatched grid_sync counts: one block group syncs more often than the
/// other — barrier starves.
#[test]
fn mismatched_grid_sync_counts_deadlock() {
    let machine = Machine::new(1, CostModel::a100_hgx(), ExecMode::Full);
    let result = launch_cpu_free(&machine, "bad_sync", move |_pe| {
        vec![
            BlockGroup::new("a", 1, |k| {
                for _ in 0..3 {
                    k.grid_sync();
                }
            }),
            BlockGroup::new("b", 1, |k| {
                for _ in 0..2 {
                    k.grid_sync(); // BUG: one fewer sync
                }
            }),
        ]
    });
    assert!(matches!(result, Err(SimError::Deadlock { .. })));
}

/// Remote write past the end of a symmetric allocation: loud panic with
/// the array name.
#[test]
fn remote_overflow_is_loud() {
    let (machine, world) = two_pe_machine();
    let arr = world.malloc("small", 4);
    let w = world.clone();
    let result = launch_cpu_free(&machine, "overflow", move |pe| {
        let w = w.clone();
        let arr = arr.clone();
        vec![BlockGroup::new("comm", 1, move |k| {
            if pe == 0 {
                let mut sh = ShmemCtx::new(&w, k);
                let src = k.machine().alloc(DevId(0), "src", 8);
                sh.putmem(k, &arr, 2, &src, 0, 8, 1); // 2+8 > 4
            }
        })]
    });
    let Err(SimError::AgentPanic { message, .. }) = result else {
        panic!("expected panic, got {result:?}");
    };
    assert!(
        message.contains("small"),
        "should name the array: {message}"
    );
    assert!(message.contains("out of range"), "{message}");
}

/// A kernel launched non-cooperatively must not call grid_sync.
#[test]
fn grid_sync_outside_cooperative_launch_panics() {
    let machine = Machine::new(1, CostModel::a100_hgx(), ExecMode::Full);
    machine.spawn_host("rank0", |host| {
        let s = host.create_stream(DevId(0), "s");
        host.launch(&s, "bad", |k| {
            k.grid_sync(); // discrete kernel: no cooperative grid
        });
        host.sync_stream(&s);
    });
    let result = machine.run();
    let Err(SimError::AgentPanic { message, .. }) = result else {
        panic!("expected panic, got {result:?}");
    };
    assert!(message.contains("cooperative"), "{message}");
}

/// Two PEs waiting on each other's signal in the wrong order: cyclic wait.
/// Declaring the expected sender (`signal_wait_from`) turns the flat
/// blocked list into a wait-for graph, and the diagnosis names the cycle.
#[test]
fn cyclic_wait_diagnosed_with_both_agents() {
    let (machine, world) = two_pe_machine();
    let sig = world.signal(0);
    let w = world.clone();
    let result = launch_cpu_free(&machine, "cycle", move |pe| {
        let w = w.clone();
        let sig = sig.clone();
        vec![BlockGroup::new("comm", 1, move |k| {
            let mut sh = ShmemCtx::new(&w, k);
            // BUG: both wait before either signals — each names the peer
            // it expects the signal from, closing the wait-for cycle.
            sh.signal_wait_from(k, &sig, Cmp::Ge, 1, 1 - pe);
            sh.signal_op(k, &sig, SignalOp::Set, 1, 1 - pe);
        })]
    });
    let Err(SimError::Deadlock { blocked, cycle, .. }) = result else {
        panic!("expected deadlock, got {result:?}");
    };
    // Both kernel agents appear in the diagnosis.
    assert!(
        blocked.iter().any(|b| b.contains("gpu0.cycle")),
        "{blocked:?}"
    );
    assert!(
        blocked.iter().any(|b| b.contains("gpu1.cycle")),
        "{blocked:?}"
    );
    // And the wait-for graph names the full cycle, in order.
    assert_eq!(cycle.len(), 2, "cycle: {cycle:?}");
    assert!(cycle.iter().any(|a| a.contains("gpu0.cycle")), "{cycle:?}");
    assert!(cycle.iter().any(|a| a.contains("gpu1.cycle")), "{cycle:?}");
}

/// Engine-level: an agent panic in one PE is attributed to the right agent.
#[test]
fn panic_attribution_names_the_agent() {
    let machine = Machine::new(4, CostModel::a100_hgx(), ExecMode::Full);
    let result = launch_cpu_free(&machine, "blame", move |pe| {
        vec![BlockGroup::new("worker", 1, move |_k| {
            assert!(pe != 2, "injected failure on pe 2");
        })]
    });
    let Err(SimError::AgentPanic { agent, message }) = result else {
        panic!("expected panic, got {result:?}");
    };
    assert!(agent.contains("gpu2"), "agent was {agent}");
    assert!(message.contains("injected failure"));
}

//! Fault injection & recovery, end to end: deterministic fault schedules
//! drive the fault-tolerant CPU-Free runners (Jacobi and CG), which must
//! recover *bit-identically* to the fault-free run; silent hangs must be
//! converted into attributed timeout diagnoses.

use cpufree::prelude::*;
use cpufree::sim_des::SimError;
use cpufree::{cpufree_solvers, stencil_lab};
use cpufree_solvers::{CgFtConfig, PoissonProblem};

fn jacobi_base() -> StencilConfig {
    StencilConfig {
        nx: 16,
        ny: 14,
        nz: 1,
        iterations: 10,
        n_gpus: 4,
        exec: ExecMode::Full,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    }
}

/// The three required fault scenarios, by name.
fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "transient link degradation",
            FaultPlan::new().with_link(LinkFault {
                a: 0,
                b: 1,
                from: SimTime::ZERO,
                until: SimTime::ZERO + us(400.0),
                latency_mult: 5.0,
                bandwidth_mult: 0.25,
            }),
        ),
        (
            "dropped signal with retry",
            FaultPlan::new().with_drop(DropFault {
                from: 1,
                to: 2,
                first_attempt: 3,
                count: 2,
            }),
        ),
        (
            "agent crash with checkpoint/restart",
            FaultPlan::new().with_crash(CrashFault {
                node: 2,
                at_iteration: 6,
            }),
        ),
    ]
}

/// Same seed/plan, same config → identical virtual end time and checksum.
#[test]
fn fault_schedule_replay_is_deterministic() {
    let plan = FaultPlan::new().with_crash(CrashFault {
        node: 2,
        at_iteration: 6,
    });
    let cfg = FtConfig::new(jacobi_base(), plan);
    let a = stencil_lab::run_cpu_free_ft(&cfg).unwrap();
    let b = stencil_lab::run_cpu_free_ft(&cfg).unwrap();
    assert_eq!(a.exec.total, b.exec.total, "virtual time must replay");
    assert_eq!(a.exec.checksum, b.exec.checksum);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.retries, b.retries);
}

/// A generated schedule is a pure function of its seed.
#[test]
fn generated_plans_are_seed_deterministic() {
    let horizon = SimTime::ZERO + us(500.0);
    let a = FaultPlan::from_seed(42, 4, horizon, 10);
    let b = FaultPlan::from_seed(42, 4, horizon, 10);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let c = FaultPlan::from_seed(43, 4, horizon, 10);
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
}

/// Jacobi completes under every fault scenario with results bit-identical
/// to the fault-free run, and the recovery overhead is visible.
#[test]
fn jacobi_recovers_bit_identically_under_faults() {
    let clean = stencil_lab::run_cpu_free_ft(&FtConfig::new(jacobi_base(), FaultPlan::new()))
        .expect("fault-free run failed");
    assert_eq!(
        clean.exec.max_err,
        Some(0.0),
        "FT runner must match the reference"
    );
    for (name, plan) in scenarios() {
        let ex = stencil_lab::run_cpu_free_ft(&FtConfig::new(jacobi_base(), plan))
            .unwrap_or_else(|e| panic!("{name}: failed to recover: {e:?}"));
        assert_eq!(
            ex.exec.checksum, clean.exec.checksum,
            "{name}: bit-identity"
        );
        assert_eq!(ex.exec.max_err, Some(0.0), "{name}: reference match");
        assert!(
            ex.exec.total >= clean.exec.total,
            "{name}: recovery overhead must be non-negative"
        );
    }
}

/// Same property for CG — including the device-side allreduce replay.
#[test]
fn cg_recovers_bit_identically_under_faults() {
    let prob = PoissonProblem::new(16, 14, 10, 4);
    let clean = cpufree_solvers::run_cpu_free_ft(
        &CgFtConfig::new(prob.clone(), FaultPlan::new()),
        ExecMode::Full,
    )
    .expect("fault-free run failed");
    assert_eq!(clean.result.verify(&prob), 0.0);
    for (name, plan) in scenarios() {
        let ex =
            cpufree_solvers::run_cpu_free_ft(&CgFtConfig::new(prob.clone(), plan), ExecMode::Full)
                .unwrap_or_else(|e| panic!("{name}: failed to recover: {e:?}"));
        assert_eq!(
            ex.result.final_rho.to_bits(),
            clean.result.final_rho.to_bits(),
            "{name}: rho bit-identity"
        );
        assert_eq!(ex.result.verify(&prob), 0.0, "{name}: reference match");
        assert!(
            ex.result.total >= clean.result.total,
            "{name}: overhead >= 0"
        );
    }
}

/// The crash scenario actually rolls back, and the dropped-signal scenario
/// actually retries — the recovery machinery is exercised, not bypassed.
#[test]
fn recovery_machinery_is_exercised() {
    let crash = stencil_lab::run_cpu_free_ft(&FtConfig::new(
        jacobi_base(),
        FaultPlan::new().with_crash(CrashFault {
            node: 2,
            at_iteration: 6,
        }),
    ))
    .unwrap();
    assert!(crash.rollbacks >= 1, "crash must trigger a rollback");
    assert!(crash.checkpoints >= 1, "checkpoints must be taken");

    let drops = stencil_lab::run_cpu_free_ft(&FtConfig::new(
        jacobi_base(),
        FaultPlan::new().with_drop(DropFault {
            from: 1,
            to: 2,
            first_attempt: 3,
            count: 2,
        }),
    ))
    .unwrap();
    assert_eq!(drops.retries, 2, "both dropped deliveries must be retried");
}

/// A deadline-bounded wait times out at *exactly* the configured virtual
/// deadline — not a poll-granularity later.
#[test]
fn timeout_fires_at_exact_virtual_deadline() {
    let engine = Engine::new();
    let flag = engine.flag(0);
    let deadline = SimTime::ZERO + us(25.0);
    engine.spawn("waiter", move |ctx| {
        let r = ctx.wait_flag_until(flag, Cmp::Ge, 1, deadline);
        assert!(r.is_err(), "flag is never set");
        assert_eq!(ctx.now(), deadline, "resume at exactly the deadline");
    });
    let end = engine.run().unwrap();
    assert_eq!(end, deadline);
}

/// A spin-polling PE defeats the deadlock detector (it is always runnable);
/// the watchdog converts the silent hang into a [`SimError::Timeout`]
/// naming the stalled PEs.
#[test]
fn watchdog_converts_silent_hang_into_timeout() {
    let machine = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full);
    let world = ShmemWorld::init(&machine);
    let never = world.signal(0);
    let heartbeats: Vec<Flag> = (0..2).map(|_| machine.flag(0)).collect();
    let done = machine.flag(0);
    spawn_watchdog(
        &machine,
        WatchdogSpec {
            heartbeats: heartbeats
                .iter()
                .enumerate()
                .map(|(pe, f)| (format!("pe{pe}"), *f))
                .collect(),
            done,
            target: 2,
            interval: us(200.0),
        },
    );
    let w = world.clone();
    let result = launch_cpu_free(&machine, "hang", move |_pe| {
        let w = w.clone();
        let never = never.clone();
        vec![BlockGroup::new("spin", 1, move |k| {
            let sh = ShmemCtx::new(&w, k);
            // BUG under test: spin-polling a signal nobody ever sends.
            // Always runnable, so the deadlock detector never triggers.
            loop {
                if sh.signal_fetch(k, &never) >= 1 {
                    break;
                }
                k.busy(Category::Compute, "spin", us(1.0));
            }
        })]
    });
    let Err(SimError::Timeout {
        agent, waiting_on, ..
    }) = result
    else {
        panic!("expected watchdog timeout, got {result:?}");
    };
    assert_eq!(agent, "watchdog");
    assert!(
        waiting_on.contains("pe0") && waiting_on.contains("pe1"),
        "{waiting_on}"
    );
}

//! The one checkpoint/restart driver behind every fault-tolerant
//! persistent kernel.
//!
//! A workload hands the driver its per-PE state as a [`Recoverable`]:
//! snapshot, restore, scrub, checkpoint size and the iteration body. The
//! driver owns everything else — the control plane (the `recover` signal,
//! the checkpoint, rollback and completion barriers, heartbeats and the
//! [`spawn_watchdog`] watchdog), the per-iteration skeleton and the
//! recovery sequence — so the protocol exists exactly once.
//!
//! # Protocol
//!
//! Each iteration `t`:
//!
//! 1. **Join** — if any PE announced a rollback (the `recover` signal
//!    moved past the locally handled count), join the recovery.
//! 2. **Checkpoint** — at every [`CHECKPOINT_EVERY`]-iteration boundary
//!    (including `t = 1`, so the earliest crash is recoverable): `quiet`,
//!    an interruptible rendezvous (engine barriers keep no round memory and
//!    timed-out arrivals are withdrawn, so mixing with a concurrent
//!    rollback is safe), the host-copy charge, then the snapshot.
//! 3. **Crash** — if the fault plan crashes this PE here: scrub device
//!    state, charge a 500 µs reboot, announce the rollback to every PE and
//!    join it.
//! 4. **Body** — the workload's iteration; any wait in it is
//!    deadline-sliced ([`FtCtx::wait`], [`FtCtx::allreduce`]) and returns
//!    [`Interrupted`] when a rollback is announced.
//! 5. **Heartbeat** — for the watchdog.
//!
//! After the last iteration the PEs meet at an interruptible final
//! rendezvous, so a PE that already finished can still be recruited into
//! a late rollback and redo the tail.
//!
//! **Recovery** (entered by every PE, crashed or not): `quiet` → barrier A
//! (after which nothing is in flight machine-wide) → restore charge →
//! [`Recoverable::restore`] (snapshot plus the workload's flag resets) →
//! barrier B → resume at the checkpoint iteration `k0 + 1`. Restored
//! state equals the original byte state and every kernel is
//! deterministic, so recovered results match fault-free results bit for
//! bit.

use crate::watchdog::{spawn_watchdog, WatchdogSpec};
use gpu_sim::{ExecMode, KernelCtx};
use nvshmem_sim::{allreduce, AllreduceWs, Members, ReduceOp, ShmemCtx, ShmemWorld, SymSignal};
use sim_des::lock::Mutex;
use sim_des::{us, Barrier, Category, Cmp, Flag, SignalOp, SimDur, SimTime};
use std::sync::Arc;

/// Iterations between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 4;
/// Deadline slice of interruptible waits (the recovery-notice poll period).
pub const POLL: SimDur = SimDur::from_nanos(50_000);
/// Watchdog stall-detection window.
pub const WATCHDOG_INTERVAL: SimDur = SimDur::from_nanos(10_000_000);

/// A wait or collective abandoned because a rollback was announced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// One PE's workload state under the checkpoint/restart driver.
pub trait Recoverable {
    /// Span-label prefix of the driver's `checkpoint`, `restore` and
    /// `reboot` charges (e.g. `"ft"` → `"ft.checkpoint"`).
    const LABEL: &'static str;

    /// Bytes one checkpoint copies to host memory (and one restore back).
    fn checkpoint_bytes(&self) -> u64;

    /// Snapshot the device state after the checkpoint rendezvous.
    fn snapshot(&mut self);

    /// Restore the last snapshot and reset the workload's signals to their
    /// fault-free values after checkpoint iteration `k0`. Runs between the
    /// rollback barriers, when nothing is in flight machine-wide.
    fn restore(&mut self, k: &mut KernelCtx<'_>, k0: u64);

    /// Scrub device state on a crash (`ExecMode::Full` only).
    fn scrub(&mut self);

    /// Work done once before the first iteration (e.g. an initial
    /// reduction). No rollback can be announced before every PE passed
    /// the first checkpoint, so this is never interrupted.
    fn start(&mut self, _k: &mut KernelCtx<'_>, _sh: &mut ShmemCtx, _ft: &mut FtCtx<'_>) {}

    /// Iteration `t`'s body.
    fn iterate(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        ft: &mut FtCtx<'_>,
        t: u64,
    ) -> Result<(), Interrupted>;
}

/// Checkpoint/restart counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollbackCounts {
    /// Rollback rounds performed (summed over PEs / number of PEs).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// The checkpoint/restart control plane shared by every PE of one run:
/// allocate it once, clone it into each PE's kernel and call
/// [`Rollback::run_pe`] there.
#[derive(Clone)]
pub struct Rollback {
    recover: SymSignal,
    cp_barrier: Barrier,
    rec_barrier_a: Barrier,
    rec_barrier_b: Barrier,
    done_barrier: Barrier,
    heartbeats: Vec<Flag>,
    done: Flag,
    /// Rollback rounds summed over PEs, retries summed, checkpoints max.
    counts: Arc<Mutex<RollbackCounts>>,
}

impl Rollback {
    /// Allocate the control plane on `world`'s machine and spawn its
    /// watchdog. Must be called before the machine runs.
    pub fn new(world: &ShmemWorld) -> Rollback {
        let machine = world.machine();
        let n = world.n_pes();
        let rollback = Rollback {
            recover: world.signal(0),
            cp_barrier: machine.barrier(n),
            rec_barrier_a: machine.barrier(n),
            rec_barrier_b: machine.barrier(n),
            done_barrier: machine.barrier(n),
            heartbeats: (0..n).map(|_| machine.flag(0)).collect(),
            done: machine.flag(0),
            counts: Arc::default(),
        };
        spawn_watchdog(
            machine,
            WatchdogSpec {
                heartbeats: rollback
                    .heartbeats
                    .iter()
                    .enumerate()
                    .map(|(pe, f)| (format!("pe{pe}"), *f))
                    .collect(),
                done: rollback.done,
                target: n as u64,
                interval: WATCHDOG_INTERVAL,
            },
        );
        rollback
    }

    /// The run's counters; read after the machine finished.
    pub fn counts(&self) -> RollbackCounts {
        let c = *self.counts.lock();
        RollbackCounts {
            rollbacks: c.rollbacks / self.heartbeats.len() as u64,
            ..c
        }
    }

    /// Drive PE `pe` through `iterations` iterations of `w` under the
    /// checkpoint/restart protocol (see the module docs).
    pub fn run_pe<W: Recoverable>(
        &self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        pe: usize,
        iterations: u64,
        w: &mut W,
    ) {
        let mut run = PeRun {
            plane: self,
            crash_at: k.machine().faults().crash_iteration(pe),
            ft: FtCtx {
                recover: &self.recover,
                handled: 0,
                retries: 0,
            },
            k0: 0,
            last_cp: None,
            crashed: false,
            rollbacks: 0,
            checkpoints: 0,
        };
        w.start(k, sh, &mut run.ft);
        let mut t: u64 = 1;
        loop {
            while t <= iterations {
                match run.iteration(k, sh, w, t) {
                    Ok(()) => {
                        // ⑤ Progress heartbeat for the watchdog.
                        k.agent_mut().signal(self.heartbeats[pe], SignalOp::Add, 1);
                        t += 1;
                    }
                    Err(Interrupted) => t = run.recover(k, sh, w),
                }
            }
            // Final rendezvous — interruptible, so PEs that already
            // finished can still be recruited into a late rollback and
            // redo the tail.
            let done = run.ft.sliced(sh, k, |_, k, deadline| {
                k.agent_mut()
                    .barrier_until(self.done_barrier, deadline)
                    .is_ok()
            });
            if done.is_ok() {
                break;
            }
            t = run.recover(k, sh, w);
        }
        let mut c = self.counts.lock();
        c.rollbacks += run.rollbacks;
        c.retries += run.ft.retries;
        c.checkpoints = c.checkpoints.max(run.checkpoints);
        drop(c);
        k.agent_mut().signal(self.done, SignalOp::Add, 1);
    }
}

/// One PE's progress through the protocol.
struct PeRun<'a> {
    plane: &'a Rollback,
    crash_at: Option<u64>,
    ft: FtCtx<'a>,
    /// Iteration the last checkpoint captured.
    k0: u64,
    last_cp: Option<u64>,
    crashed: bool,
    rollbacks: u64,
    checkpoints: u64,
}

impl PeRun<'_> {
    /// Steps ①–④ of iteration `t`; `Err` means: join the rollback.
    fn iteration<W: Recoverable>(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        w: &mut W,
        t: u64,
    ) -> Result<(), Interrupted> {
        // ① Join any announced rollback before doing new work.
        if self.ft.interrupted(sh, k) {
            return Err(Interrupted);
        }
        // ② Checkpoint at every CHECKPOINT_EVERY-iteration boundary.
        if (t - 1).is_multiple_of(CHECKPOINT_EVERY) && self.last_cp != Some(t - 1) {
            sh.quiet(k); // deliveries of iteration t-1 land before the barrier releases
            let barrier = self.plane.cp_barrier;
            self.ft.sliced(sh, k, |_, k, deadline| {
                k.agent_mut().barrier_until(barrier, deadline).is_ok()
            })?;
            charge_host_copy(k, w.checkpoint_bytes(), W::LABEL, "checkpoint");
            w.snapshot();
            self.k0 = t - 1;
            self.last_cp = Some(self.k0);
            self.checkpoints += 1;
        }
        // ③ Scheduled crash: scrub device state, reboot, announce the
        // rollback to every PE, then join it ourselves.
        if !self.crashed && self.crash_at == Some(t) {
            self.crashed = true;
            if k.exec_mode() == ExecMode::Full {
                w.scrub();
            }
            k.busy(Category::Api, format!("{}.reboot", W::LABEL), us(500.0));
            for q in 0..self.plane.heartbeats.len() {
                sh.signal_op(k, &self.plane.recover, SignalOp::Add, 1, q);
            }
            return Err(Interrupted);
        }
        // ④ The workload's iteration.
        w.iterate(k, sh, &mut self.ft, t)
    }

    /// quiet → barrier A → restore charge → restore → barrier B; returns
    /// the iteration to resume at.
    fn recover<W: Recoverable>(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        w: &mut W,
    ) -> u64 {
        // Drain own in-flight deliveries; once every PE is past barrier
        // A, nothing stale is in flight machine-wide.
        sh.quiet(k);
        k.agent_mut().barrier(self.plane.rec_barrier_a);
        charge_host_copy(k, w.checkpoint_bytes(), W::LABEL, "restore");
        w.restore(k, self.k0);
        k.agent_mut().barrier(self.plane.rec_barrier_b);
        self.ft.handled += 1;
        self.rollbacks += 1;
        self.k0 + 1
    }
}

fn charge_host_copy(k: &mut KernelCtx<'_>, bytes: u64, label: &str, what: &str) {
    let dur = k
        .machine()
        .transport()
        .host_copy(k.device(), bytes, k.now());
    k.busy(Category::Api, format!("{label}.{what}"), dur);
}

/// What a [`Recoverable`] body sees of the driver: interruptible waits and
/// the retry counter.
pub struct FtCtx<'a> {
    recover: &'a SymSignal,
    /// Rollback announcements consumed.
    handled: u64,
    retries: u64,
}

impl FtCtx<'_> {
    /// `true` once a rollback this PE has not joined yet was announced.
    fn interrupted(&self, sh: &ShmemCtx, k: &KernelCtx<'_>) -> bool {
        sh.signal_fetch(k, self.recover) > self.handled
    }

    /// The one deadline-sliced wait: retry `attempt` (given the slice's
    /// deadline; `true` = done) every [`POLL`] until it succeeds, checking
    /// for a rollback announcement before each slice.
    fn sliced(
        &self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        mut attempt: impl FnMut(&mut ShmemCtx, &mut KernelCtx<'_>, SimTime) -> bool,
    ) -> Result<(), Interrupted> {
        loop {
            if self.interrupted(sh, k) {
                return Err(Interrupted);
            }
            let deadline = k.now() + POLL;
            if attempt(sh, k, deadline) {
                return Ok(());
            }
        }
    }

    /// Wait until this PE's copy of `sig` reaches `value`, abandoning the
    /// wait when a rollback is announced — a lost signal can never hang
    /// the PE.
    pub fn wait(
        &self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        value: u64,
    ) -> Result<(), Interrupted> {
        self.sliced(sh, k, |sh, k, deadline| {
            sh.signal_wait_until_deadline(k, sig, Cmp::Ge, value, deadline)
                .is_ok()
        })
    }

    /// Allreduce-sum over every PE whose waits are [`FtCtx::wait`]s. On
    /// [`Interrupted`] the workspace counter may have advanced past the
    /// abandoned epoch; the workload's restore must rewind it.
    pub fn allreduce(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        ws: &mut AllreduceWs,
        value: f64,
    ) -> Result<f64, Interrupted> {
        let mut retries = 0;
        let sum = allreduce(
            sh,
            k,
            ws,
            value,
            ReduceOp::Sum,
            Members::All,
            &mut |sh, k, sig, v, _| self.wait(sh, k, sig, v).is_ok(),
            &mut retries,
        );
        self.retries += retries;
        sum.ok_or(Interrupted)
    }

    /// Count a reliable put's extra attempts (its return value minus one).
    pub fn count_attempts(&mut self, attempts: u32) {
        self.retries += u64::from(attempts - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch_cpu_free;
    use gpu_sim::{BlockGroup, CostModel, Machine, TopologyKind};
    use nvshmem_sim::{reference_reduce, wait_from};

    const N: usize = 4;

    fn value(pe: usize, epoch: u64) -> f64 {
        (pe as f64 + 1.0) * 0.37 - epoch as f64 * 1.1
    }

    fn expected(epoch: u64) -> u64 {
        let vals: Vec<f64> = (0..N).map(|pe| value(pe, epoch)).collect();
        reference_reduce(&vals, ReduceOp::Sum, true).to_bits()
    }

    /// Three back-to-back allreduces whose waits are either the driver's
    /// sliced waits (never interrupted) or attributed blocking waits;
    /// returns every PE's result bits and the end time.
    fn three_epochs(kind: TopologyKind, sliced: bool) -> (Vec<Vec<u64>>, SimTime) {
        let machine = Machine::with_topology(N, CostModel::a100_hgx(), kind, ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let ws = AllreduceWs::new(&world);
        let recover = world.signal(0);
        let out = Arc::new(Mutex::new(vec![Vec::new(); N]));
        let out_l = Arc::clone(&out);
        let end = launch_cpu_free(&machine, "epochs", 1024, move |pe| {
            let (world, mut ws, recover) = (world.clone(), ws.clone(), recover.clone());
            let out = Arc::clone(&out_l);
            vec![BlockGroup::new("g", 1, move |k| {
                let mut sh = ShmemCtx::new(&world, k);
                let mut ft = FtCtx {
                    recover: &recover,
                    handled: 0,
                    retries: 0,
                };
                for epoch in 1..=3 {
                    let v = value(pe, epoch);
                    let r = if sliced {
                        ft.allreduce(&mut sh, k, &mut ws, v).unwrap()
                    } else {
                        let mut retries = 0;
                        let wait = &mut wait_from;
                        allreduce(
                            &mut sh,
                            k,
                            &mut ws,
                            v,
                            ReduceOp::Sum,
                            Members::All,
                            wait,
                            &mut retries,
                        )
                        .unwrap()
                    };
                    out.lock()[pe].push(r.to_bits());
                }
            })]
        })
        .unwrap();
        let res = out.lock().clone();
        (res, end)
    }

    #[test]
    fn sliced_waits_match_attributed_waits_on_every_node_preset() {
        let want: Vec<u64> = (1..=3).map(expected).collect();
        for kind in TopologyKind::node_presets() {
            let (sliced, t_sliced) = three_epochs(kind, true);
            let (attributed, t_attributed) = three_epochs(kind, false);
            assert_eq!(sliced, vec![want.clone(); N], "{}", kind.name());
            assert_eq!(attributed, sliced, "{}", kind.name());
            assert_eq!(t_sliced, t_attributed, "{}", kind.name());
        }
    }

    #[test]
    fn interrupted_allreduce_rewinds_and_completes() {
        let machine = Machine::new(N, CostModel::a100_hgx(), ExecMode::Full);
        let world = ShmemWorld::init(&machine);
        let ws = AllreduceWs::new(&world);
        let recover = world.signal(0);
        let (barrier_a, barrier_b) = (machine.barrier(N), machine.barrier(N));
        let out = Arc::new(Mutex::new(vec![(false, 0u64); N]));
        let out_l = Arc::clone(&out);
        launch_cpu_free(&machine, "interrupt", 1024, move |pe| {
            let (world, mut ws, recover) = (world.clone(), ws.clone(), recover.clone());
            let out = Arc::clone(&out_l);
            vec![BlockGroup::new("g", 1, move |k| {
                let mut sh = ShmemCtx::new(&world, k);
                let mut ft = FtCtx {
                    recover: &recover,
                    handled: 0,
                    retries: 0,
                };
                assert_eq!(
                    ft.allreduce(&mut sh, k, &mut ws, value(pe, 1)),
                    Ok(f64::from_bits(expected(1)))
                );
                // PE 3 never joins epoch 2: it announces a rollback
                // instead, which every other PE sees mid-call.
                let interrupted = if pe == N - 1 {
                    k.busy(Category::Compute, "stall", us(5.0));
                    for q in 0..N {
                        sh.signal_op(k, &recover, SignalOp::Add, 1, q);
                    }
                    false
                } else {
                    ft.allreduce(&mut sh, k, &mut ws, value(pe, 2)) == Err(Interrupted)
                };
                // Rollback: nothing in flight after A, then rewind to the
                // one completed call.
                sh.quiet(k);
                k.agent_mut().barrier(barrier_a);
                ws.set_seq(1);
                ws.reset_local(k, pe, 1);
                k.agent_mut().barrier(barrier_b);
                ft.handled += 1;
                let again = ft.allreduce(&mut sh, k, &mut ws, value(pe, 2)).unwrap();
                out.lock()[pe] = (interrupted, again.to_bits());
            })]
        })
        .unwrap();
        let out = out.lock();
        for (pe, &(interrupted, bits)) in out.iter().enumerate() {
            assert_eq!(interrupted, pe != N - 1, "pe{pe}");
            assert_eq!(bits, expected(2), "pe{pe}");
        }
    }
}

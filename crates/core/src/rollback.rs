//! The drivers every persistent-kernel PE loop runs under.
//!
//! A workload writes its iteration once, as a [`Recoverable`] (the
//! iteration body plus snapshot, restore and scrub hooks). The body asks
//! its [`Driver`] for the only things the execution paths differ in: how
//! to wait for a peer's signal, which PEs an allreduce spans, where to
//! count a reliable put's retries, and when the fault plan kills a PE.
//! Three drivers answer:
//!
//! * [`Blocking`] — the plain fault-free run: blocking waits, full-world
//!   allreduces, nobody dies.
//! * [`Rollback`] — checkpoint/restart: every wait is deadline-sliced so a
//!   PE can join an announced rollback, and a crash rolls every PE back to
//!   the last checkpoint (protocol below). Its per-PE view is [`FtCtx`].
//! * [`Quorum`] — degraded mode: a crashed PE dies for good, and the
//!   survivors carry on with allreduces over the living quorum and halo
//!   waits clamped at a dead neighbor's last push.
//!
//! From [`Driver::death`] of a neighbor `nb` (only [`Quorum`] ever
//! reports one) a body derives its degraded behaviour: a wait for a value
//! past `death(nb) - 1` is clamped there and puts to `nb` stop from
//! iteration `death(nb)` on (both in [`Halo`]), and a stencil freezes
//! `nb`'s halo at `t == death(nb)`.
//!
//! # Rollback protocol
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
//! 3. **Crash** — if the fault plan crashes this PE here
//!    ([`sim_des::FaultPlan::crash_iteration`]): scrub device state, charge
//!    a 500 µs reboot, announce the rollback to every PE and join it.
//! 4. **Body** — the workload's iteration; any wait in it is
//!    deadline-sliced and returns [`Interrupted`] when a rollback is
//!    announced.
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
//!
//! The iteration checker's neighbour-skew bound
//! ([`gpu_sim::Checker::iteration`]) is fed by [`Blocking`] and [`Quorum`]
//! only: replayed iterations after a rollback would falsely trip it.

use crate::watchdog::{spawn_watchdog, WatchdogSpec};
use gpu_sim::{alive_at, ExecMode, KernelCtx};
use nvshmem_sim::{
    allreduce, wait_from, AllreduceWs, Members, ReduceOp, ShmemCtx, ShmemWorld, SymArray, SymSignal,
};
use sim_des::lock::Mutex;
use sim_des::{us, Barrier, Category, Cmp, FaultState, Flag, SignalOp, SimDur, SimTime};
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

/// What a PE's iteration body asks of the driver running it.
pub trait Driver {
    /// Wait until this PE's copy of `sig` reaches `value`; PE `from` is
    /// the peer expected to raise it.
    fn wait(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        value: u64,
        from: usize,
    ) -> Result<(), Interrupted>;

    /// Record `extra` put attempts spent on dropped deliveries.
    fn add_retries(&mut self, extra: u64);

    /// The iteration at whose start PE `pe` dies for good, if it does.
    fn death(&self, _pe: usize) -> Option<u64> {
        None
    }

    /// The PEs an allreduce on iteration `t` spans: `None` for all of them.
    fn quorum(&self, _t: u64) -> Option<Vec<usize>> {
        None
    }

    /// Allreduce-sum `value` on iteration `t` (`0` before the first) over
    /// [`Driver::quorum`], every round waiting through [`Driver::wait`]. On
    /// [`Interrupted`] the workspace counter may have advanced past the
    /// abandoned epoch; a rollback's restore must rewind it.
    fn allreduce(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        ws: &mut AllreduceWs,
        value: f64,
        t: u64,
    ) -> Result<f64, Interrupted> {
        let quorum = self.quorum(t);
        let members = quorum.as_deref().map_or(Members::All, Members::Quorum);
        let mut retries = 0;
        let sum = allreduce(
            sh,
            k,
            ws,
            value,
            ReduceOp::Sum,
            members,
            &mut |sh, k, sig, v, from| self.wait(sh, k, sig, v, from).is_ok(),
            &mut retries,
        );
        self.add_retries(retries);
        sum.ok_or(Interrupted)
    }
}

/// One PE's workload state: the iteration body every [`Driver`] runs, and
/// the checkpoint hooks [`Rollback`] (and, for `scrub`, [`Quorum`]) needs.
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
    fn start<D: Driver>(&mut self, _k: &mut KernelCtx<'_>, _sh: &mut ShmemCtx, _d: &mut D) {}

    /// Iteration `t`'s body.
    fn iterate<D: Driver>(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        d: &mut D,
        t: u64,
    ) -> Result<(), Interrupted>;
}

/// One slab neighbor's halo exchange, seen from this PE: my boundary layer
/// at `src` lands in `nb`'s halo at `dst` and raises `sig_there` on `nb`;
/// `nb`'s own put raises `sig_here` on me.
pub struct Halo<'a> {
    /// The neighbor.
    pub nb: usize,
    /// Offset of my boundary layer in `nb`'s slab.
    pub dst: usize,
    /// Offset of my boundary layer in mine.
    pub src: usize,
    /// Raised on `nb` by my put.
    pub sig_there: &'a SymSignal,
    /// Raised on me by `nb`'s put.
    pub sig_here: &'a SymSignal,
}

impl Halo<'_> {
    /// Put `len` elements of my boundary in `buf` into `nb`'s halo,
    /// reliably, signalling `t` — unless `nb` died by iteration `t`.
    pub fn put<D: Driver>(
        &self,
        d: &mut D,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        buf: &SymArray,
        len: usize,
        t: u64,
    ) {
        if d.death(self.nb).is_some_and(|dd| t >= dd) {
            return;
        }
        let src = buf.local(sh.my_pe());
        let attempts = sh.putmem_signal_reliable(
            k,
            buf,
            self.dst,
            src,
            self.src,
            len,
            self.sig_there,
            SignalOp::Set,
            t,
            self.nb,
        );
        d.add_retries(u64::from(attempts - 1));
    }

    /// Wait for `nb`'s put signalling `value`, clamped at a dead
    /// neighbor's last one (`death - 1`).
    pub fn wait<D: Driver>(
        &self,
        d: &mut D,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        value: u64,
    ) -> Result<(), Interrupted> {
        let target = d.death(self.nb).map_or(value, |dd| value.min(dd - 1));
        d.wait(sh, k, self.sig_here, target, self.nb)
    }
}

/// Drive PE `pe` through `iterations` iterations of `w` under a driver
/// whose waits block ([`Blocking`] or [`Quorum`]), reporting each iteration
/// to the machine's checker, if any. At a [`Driver::death`] of its own the
/// PE drains its in-flight puts (an nbi put reads its source at delivery
/// time, so its last halos must leave intact), scrubs its state, charges
/// `degraded.die` and stops. Returns whether the PE survived.
pub fn run_blocking<D: Driver, W: Recoverable>(
    d: &mut D,
    k: &mut KernelCtx<'_>,
    sh: &mut ShmemCtx,
    pe: usize,
    iterations: u64,
    w: &mut W,
) -> bool {
    let checker = k.machine().checker();
    w.start(k, sh, d);
    for t in 1..=iterations {
        if d.death(pe) == Some(t) {
            sh.quiet(k);
            if k.exec_mode() == ExecMode::Full {
                w.scrub();
            }
            k.busy(Category::Api, "degraded.die", us(1.0));
            return false;
        }
        if let Some(chk) = &checker {
            chk.iteration(pe, t, &k.agent().name(), k.now());
        }
        w.iterate(k, sh, d, t)
            .expect("a blocking wait is never interrupted");
    }
    true
}

/// The fault-free driver: blocking waits ([`ShmemCtx::signal_wait_until`])
/// and full-world allreduces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocking;

impl Driver for Blocking {
    fn wait(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        value: u64,
        _from: usize,
    ) -> Result<(), Interrupted> {
        sh.signal_wait_until(k, sig, Cmp::Ge, value);
        Ok(())
    }

    fn add_retries(&mut self, _extra: u64) {}
}

/// The degraded-mode driver: a PE the fault plan crashes
/// ([`sim_des::FaultPlan::crash_iteration`]) dies for good at the start of
/// that iteration, and the survivors finish without it. Waits block and
/// declare their peer ([`wait_from`]), so a hang is attributed; allreduces
/// span `alive_at(plan, n, t)` and need a ring workspace
/// ([`AllreduceWs::new_ring`]). Allocate once per run, after the fault plan
/// is set, and clone into each PE.
#[derive(Clone)]
pub struct Quorum {
    faults: Arc<FaultState>,
    n: usize,
    /// Extra put attempts, summed over PEs.
    retries: Arc<Mutex<u64>>,
}

impl Quorum {
    /// The driver for `world`'s machine under its current fault plan.
    pub fn new(world: &ShmemWorld) -> Quorum {
        Quorum {
            faults: world.machine().faults(),
            n: world.n_pes(),
            retries: Arc::default(),
        }
    }

    /// Extra put attempts spent on dropped deliveries (all PEs); read
    /// after the machine finished.
    pub fn retries(&self) -> u64 {
        *self.retries.lock()
    }
}

impl Driver for Quorum {
    fn wait(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        value: u64,
        from: usize,
    ) -> Result<(), Interrupted> {
        wait_from(sh, k, sig, value, from);
        Ok(())
    }

    fn add_retries(&mut self, extra: u64) {
        *self.retries.lock() += extra;
    }

    fn death(&self, pe: usize) -> Option<u64> {
        self.faults.plan().crash_iteration(pe)
    }

    fn quorum(&self, t: u64) -> Option<Vec<usize>> {
        Some(alive_at(self.faults.plan(), self.n, t))
    }
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
            crash_at: k.machine().faults().plan().crash_iteration(pe),
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

/// [`Rollback`]'s per-PE [`Driver`]: waits and allreduces are
/// deadline-sliced and return [`Interrupted`] once a rollback is announced,
/// so a lost signal can never hang the PE; nobody dies.
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
}

impl Driver for FtCtx<'_> {
    fn wait(
        &mut self,
        sh: &mut ShmemCtx,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        value: u64,
        _from: usize,
    ) -> Result<(), Interrupted> {
        self.sliced(sh, k, |sh, k, deadline| {
            sh.signal_wait_until_deadline(k, sig, Cmp::Ge, value, deadline)
                .is_ok()
        })
    }

    fn add_retries(&mut self, extra: u64) {
        self.retries += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch_cpu_free;
    use gpu_sim::{BlockGroup, CostModel, Machine, TopologyKind};
    use nvshmem_sim::reference_reduce;

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
        let end = launch_cpu_free(&machine, "epochs", move |pe| {
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
                        ft.allreduce(&mut sh, k, &mut ws, v, epoch).unwrap()
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
        launch_cpu_free(&machine, "interrupt", move |pe| {
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
                    ft.allreduce(&mut sh, k, &mut ws, value(pe, 1), 1),
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
                    ft.allreduce(&mut sh, k, &mut ws, value(pe, 2), 2) == Err(Interrupted)
                };
                // Rollback: nothing in flight after A, then rewind to the
                // one completed call.
                sh.quiet(k);
                k.agent_mut().barrier(barrier_a);
                ws.set_seq(1);
                ws.reset_local(k, pe, 1);
                k.agent_mut().barrier(barrier_b);
                ft.handled += 1;
                let again = ft.allreduce(&mut sh, k, &mut ws, value(pe, 2), 2).unwrap();
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

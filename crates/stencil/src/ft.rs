//! Fault-tolerant CPU-Free Jacobi: the persistent kernel of
//! `variants::cpufree` run under the [`cpufree_core::Rollback`]
//! checkpoint/restart driver, with retrying puts and interruptible halo
//! waits — all driven by a deterministic [`FaultPlan`].
//!
//! One block group per PE runs the whole sweep (boundary + inner in one
//! pass — bitwise identical to the split-group variant, since every written
//! point depends only on the read generation). Each iteration's body:
//!
//! 1. **Halo waits** — deadline-sliced ([`FtCtx::wait`]) so a waiting PE
//!    joins an announced rollback; a lost signal can never hang the PE.
//! 2. **Sweep** — compute time is stretched by any active straggler window.
//! 3. **Halo puts** — [`ShmemCtx::putmem_signal_reliable`] retries dropped
//!    deliveries with exponential backoff.
//!
//! A checkpoint snapshots **both** ping-pong generations: restoring both
//! reproduces the exact byte state at the top of iteration `k0 + 1`, and
//! restore resets the PE's own halo-in signals to `k0`. Because every
//! re-sent message is then byte-identical to the original run, recovered
//! results match fault-free results bit for bit.

use crate::config::StencilConfig;
use crate::domain::{compute_phase, Domain, Executed};
use cpufree_core::{launch_cpu_free, FtCtx, Interrupted, Recoverable, Rollback};
use gpu_sim::{BlockGroup, FaultPlan, KernelCtx};
use nvshmem_sim::ShmemCtx;
use sim_des::{SignalOp, SimError};
use std::sync::Arc;

/// Configuration of a fault-tolerant run.
#[derive(Clone)]
pub struct FtConfig {
    /// The underlying stencil problem.
    pub base: StencilConfig,
    /// The deterministic fault schedule (empty plan = fault-free).
    pub plan: FaultPlan,
}

impl FtConfig {
    /// Fault-tolerant run of `base` under `plan`.
    pub fn new(base: StencilConfig, plan: FaultPlan) -> FtConfig {
        FtConfig { base, plan }
    }
}

/// Outcome of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtExecuted {
    /// The usual measurements (total time, stats, max_err, checksum).
    pub exec: Executed,
    /// Rollback rounds performed (summed over PEs / number of PEs).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// Run the fault-tolerant CPU-Free stencil under `cfg.plan`.
///
/// Returns `Err` only for unrecoverable outcomes — a watchdog-diagnosed
/// stall surfaces as [`SimError::Timeout`] naming the stuck PE and the
/// wait-for cycle. All faults covered by the plan classes are recovered
/// transparently, with the overhead visible in `exec.total`.
pub fn run_cpu_free_ft(cfg: &FtConfig) -> Result<FtExecuted, SimError> {
    let dom = Arc::new(Domain::new(&cfg.base));
    dom.machine.set_fault_plan(cfg.plan.clone());
    let rollback = Rollback::new(&dom.world);

    let dom_l = Arc::clone(&dom);
    let rollback_l = rollback.clone();
    let end = launch_cpu_free(
        &dom.machine.clone(),
        "cpufree_ft",
        cfg.base.threads_per_block,
        move |pe| {
            let dom = Arc::clone(&dom_l);
            let rollback = rollback_l.clone();
            vec![BlockGroup::new("ft", 1, move |k| {
                let mut sh = ShmemCtx::new(&dom.world, k);
                let iterations = dom.cfg.iterations;
                let mut w = JacobiPe {
                    dom: &dom,
                    pe,
                    snap: None,
                };
                rollback.run_pe(k, &mut sh, pe, iterations, &mut w);
            })]
        },
    )?;

    let exec = Executed::collect(&dom, end);
    let c = rollback.counts();
    Ok(FtExecuted {
        exec,
        rollbacks: c.rollbacks,
        retries: c.retries,
        checkpoints: c.checkpoints,
    })
}

/// One PE's Jacobi state: its slab of both generations.
struct JacobiPe<'a> {
    dom: &'a Domain,
    pe: usize,
    snap: Option<(Vec<f64>, Vec<f64>)>,
}

impl Recoverable for JacobiPe<'_> {
    const LABEL: &'static str = "ft";

    fn checkpoint_bytes(&self) -> u64 {
        2 * (self.dom.gen[0].local(self.pe).len() * 8) as u64
    }

    fn snapshot(&mut self) {
        let (g0, g1) = (
            self.dom.gen[0].local(self.pe),
            self.dom.gen[1].local(self.pe),
        );
        self.snap = Some((g0.to_vec(), g1.to_vec()));
    }

    fn restore(&mut self, k: &mut KernelCtx<'_>, k0: u64) {
        let (dom, pe) = (self.dom, self.pe);
        // Both generations: the exact byte state at the top of iteration
        // k0 + 1 (including halos and global boundary rows).
        if let Some((g0, g1)) = &self.snap {
            dom.gen[0].local(pe).write_slice(0, g0);
            dom.gen[1].local(pe).write_slice(0, g1);
        }
        // The snapshot already holds the neighbors' iteration-k0 halos;
        // any later (stale) value must not satisfy a post-rollback wait.
        k.agent_mut()
            .signal(dom.sig_from_low.flag(pe), SignalOp::Set, k0);
        k.agent_mut()
            .signal(dom.sig_from_high.flag(pe), SignalOp::Set, k0);
    }

    fn scrub(&mut self) {
        self.dom.gen[0].local(self.pe).fill(f64::NAN);
        self.dom.gen[1].local(self.pe).fill(f64::NAN);
    }

    fn iterate(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        ft: &mut FtCtx<'_>,
        t: u64,
    ) -> Result<(), Interrupted> {
        let (dom, pe) = (self.dom, self.pe);
        let n = dom.cfg.n_gpus;
        // ① Halo waits, deadline-sliced so lost signals cannot hang us.
        if pe > 0 {
            ft.wait(sh, k, &dom.sig_from_low, t - 1)?;
        }
        if pe + 1 < n {
            ft.wait(sh, k, &dom.sig_from_high, t - 1)?;
        }

        // ② One full sweep (boundary + inner at once — same numerics as
        // the split-group kernel), stretched by straggler windows.
        let w = dom.workload(pe);
        let straggle = dom.machine.faults().compute_mult(pe, k.now());
        let geo = Arc::clone(&dom.geo);
        let read = dom.read_gen(t).local(pe).clone();
        let write = dom.write_gen(t).local(pe).clone();
        let layers = dom.layers(pe);
        compute_phase(
            k,
            &w,
            w.total_points(),
            1.0,
            1.0,
            straggle,
            "ft.sweep",
            || geo.sweep(&read, &write, (1, layers)),
        );

        // ③ Commit boundary layers to the neighbors' halos, reliably.
        let wg = dom.write_gen(t);
        let le = dom.layer_elems();
        if pe > 0 {
            ft.count_attempts(sh.putmem_signal_reliable(
                k,
                wg,
                dom.high_halo_off(pe - 1),
                wg.local(pe),
                dom.first_layer_off(),
                le,
                &dom.sig_from_high,
                SignalOp::Set,
                t,
                pe - 1,
            ));
        }
        if pe + 1 < n {
            ft.count_attempts(sh.putmem_signal_reliable(
                k,
                wg,
                dom.low_halo_off(),
                wg.local(pe),
                dom.last_layer_off(pe),
                le,
                &dom.sig_from_low,
                SignalOp::Set,
                t,
                pe + 1,
            ));
        }
        k.grid_sync();
        Ok(())
    }
}

//! Fault-tolerant CPU-Free Jacobi, and the one-group iteration
//! (`JacobiPe`) every fault run of Jacobi shares: this module's
//! checkpoint/restart runner drives it under [`cpufree_core::Rollback`],
//! [`crate::degraded`] under [`cpufree_core::Quorum`] — all driven by a
//! deterministic [`FaultPlan`].
//!
//! One block group per PE runs the whole sweep (boundary + inner in one
//! pass — bitwise identical to the split-group `variants::cpufree`, since
//! every written point depends only on the read generation). Each
//! iteration:
//!
//! 1. **Halo waits** through the driver — deadline-sliced under rollback,
//!    so a waiting PE joins an announced rollback and a lost signal can
//!    never hang it; clamped at a dead neighbor's last push in degraded
//!    mode.
//! 2. **Freeze** a neighbor's halo at its death iteration (degraded mode).
//! 3. **Sweep** — compute time is stretched by any active straggler window.
//! 4. **Halo puts** to living neighbors —
//!    [`ShmemCtx::putmem_signal_reliable`] retries dropped deliveries with
//!    exponential backoff.
//!
//! A checkpoint snapshots **both** ping-pong generations: restoring both
//! reproduces the exact byte state at the top of iteration `k0 + 1`, and
//! restore resets the PE's own halo-in signals to `k0`. Because every
//! re-sent message is then byte-identical to the original run, recovered
//! results match fault-free results bit for bit.

use crate::config::StencilConfig;
use crate::domain::{compute_phase, Domain, Executed};
use cpufree_core::{launch_cpu_free, Driver, Halo, Interrupted, Recoverable, Rollback};
use gpu_sim::{BlockGroup, ExecMode, FaultPlan, KernelCtx};
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
    let end = launch_cpu_free(&dom.machine.clone(), "cpufree_ft", move |pe| {
        let dom = Arc::clone(&dom_l);
        let rollback = rollback_l.clone();
        vec![BlockGroup::new("ft", 1, move |k| {
            let mut sh = ShmemCtx::new(&dom.world, k);
            let iterations = dom.cfg.iterations;
            let mut w = JacobiPe::new(&dom, pe, "ft.sweep");
            rollback.run_pe(k, &mut sh, pe, iterations, &mut w);
        })]
    })?;

    let exec = Executed::collect(&dom, end);
    let c = rollback.counts();
    Ok(FtExecuted {
        exec,
        rollbacks: c.rollbacks,
        retries: c.retries,
        checkpoints: c.checkpoints,
    })
}

/// One PE's Jacobi state: its slab of both generations. The one-group
/// persistent-kernel iteration of the fault-tolerant and degraded runs.
pub(crate) struct JacobiPe<'a> {
    dom: &'a Domain,
    pe: usize,
    /// Span label of the sweep (`"ft.sweep"`, `"degraded.sweep"`).
    sweep: &'static str,
    /// The boundary-layer exchange with each neighbor.
    halos: Vec<Halo<'a>>,
    snap: Option<(Vec<f64>, Vec<f64>)>,
}

impl<'a> JacobiPe<'a> {
    pub(crate) fn new(dom: &'a Domain, pe: usize, sweep: &'static str) -> JacobiPe<'a> {
        JacobiPe {
            dom,
            pe,
            sweep,
            halos: dom.halos(pe).collect(),
            snap: None,
        }
    }
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

    fn iterate<D: Driver>(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        d: &mut D,
        t: u64,
    ) -> Result<(), Interrupted> {
        let (dom, pe) = (self.dom, self.pe);
        // ① Halo waits for the neighbors' iteration t-1 layers.
        for h in &self.halos {
            h.wait(d, sh, k, t - 1)?;
        }

        // ② Freeze a dying neighbor's halo: at its death iteration the
        // newest halo (generation d-1, just waited for in this iteration's
        // read generation) is copied into the other generation, so both
        // ping-pong halves carry the final boundary forever after.
        if k.exec_mode() == ExecMode::Full {
            for h in self.halos.iter().filter(|h| d.death(h.nb) == Some(t)) {
                let halo = if h.nb < pe {
                    dom.low_halo_off()
                } else {
                    dom.high_halo_off(pe)
                };
                let mut row = vec![0.0; dom.layer_elems()];
                dom.read_gen(t).local(pe).read_slice(halo, &mut row);
                dom.write_gen(t).local(pe).write_slice(halo, &row);
            }
        }

        // ③ One full sweep (boundary + inner at once — same numerics as
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
            self.sweep,
            || geo.sweep(&read, &write, (1, layers)),
        );

        // ④ Commit boundary layers to living neighbors' halos (transfers
        // over a killed link reroute inside the transport).
        for h in &self.halos {
            h.put(d, sh, k, dom.write_gen(t), dom.layer_elems(), t);
        }
        k.grid_sync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded::run_cpu_free_degraded;
    use sim_des::CrashFault;

    #[test]
    fn crash_at_iteration_zero_hits_the_first_iteration() {
        let base = StencilConfig::square2d(32, 8, 4);
        let crash = |at_iteration| {
            FtConfig::new(
                base.clone(),
                FaultPlan::new().with_crash(CrashFault {
                    node: 1,
                    at_iteration,
                }),
            )
        };
        let clean = run_cpu_free_ft(&FtConfig::new(base.clone(), FaultPlan::new())).unwrap();
        let (at0, at1) = (crash(0), crash(1));
        let ft = run_cpu_free_ft(&at0).unwrap();
        assert_eq!(ft.rollbacks, 1);
        assert_eq!(ft.exec.checksum, clean.exec.checksum);
        assert_eq!(ft.exec.total, run_cpu_free_ft(&at1).unwrap().exec.total);
        let degraded = run_cpu_free_degraded(&at0).unwrap();
        assert_eq!(degraded.quorum, vec![0, 2, 3]);
        assert_eq!(degraded.max_err, Some(0.0));
        assert_eq!(
            degraded.checksum,
            run_cpu_free_degraded(&at1).unwrap().checksum
        );
    }
}

//! Fault-tolerant CPU-Free CG: the persistent kernel of [`crate::cg`] run
//! under the [`cpufree_core::Rollback`] checkpoint/restart driver, with
//! retrying puts and interruptible waits and allreduces — driven by a
//! deterministic [`FaultPlan`].
//!
//! The numerical schedule is identical to [`crate::cg::run_cpu_free`]
//! (p-halo exchange → matvec → pq-allreduce → axpy → rho-allreduce →
//! p-update), so fault-free results match the plain variant bitwise. Every
//! wait is deadline-sliced ([`FtCtx::wait`], [`FtCtx::allreduce`]) so a
//! PE joins an announced rollback instead of waiting on a peer that
//! restarted, and dropped deliveries are retried with backoff.
//!
//! A checkpoint snapshots `x`, `r`, `q`, the full local `p` slab (owned
//! rows *and* halos) and the scalar `rho`. The allreduce epoch counter
//! needs no snapshot — it is a pure function of the checkpoint iteration
//! (`1 + 2·k0`: one `rho0` call plus two calls per completed iteration) —
//! so restore rewinds it and resets the local allreduce and halo flags to
//! their exact fault-free values at iteration `k0`. The replay, including
//! every reduction order, is then bit-identical to the fault-free run.

use crate::cg::{alloc_state, collect, halo_geom, halo_len, CgResult, HaloGeom, PeState};
use crate::kernels::{axpy_xr, dot_local, matvec, update_p, vec_op_scaled};
use crate::problem::{PoissonProblem, ReduceOrder};
use cpufree_core::{launch_cpu_free, FtCtx, Interrupted, Recoverable, Rollback};
use gpu_sim::{BlockGroup, ExecMode, FaultPlan, KernelCtx};
use nvshmem_sim::{AllreduceWs, ShmemCtx, ShmemWorld, SymArray, SymSignal};
use sim_des::lock::Mutex;
use sim_des::{SignalOp, SimError};
use std::sync::Arc;

/// Configuration of a fault-tolerant CG run.
#[derive(Clone)]
pub struct CgFtConfig {
    /// The underlying Poisson problem.
    pub prob: PoissonProblem,
    /// The deterministic fault schedule (empty plan = fault-free).
    pub plan: FaultPlan,
}

impl CgFtConfig {
    /// Fault-tolerant run of `prob` under `plan`.
    pub fn new(prob: PoissonProblem, plan: FaultPlan) -> CgFtConfig {
        CgFtConfig { prob, plan }
    }
}

/// Outcome of a fault-tolerant CG run.
#[derive(Debug)]
pub struct CgFtResult {
    /// The usual solver result (total time, stats, solution, rho).
    pub result: CgResult,
    /// Rollback rounds performed (summed over PEs / number of PEs).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// Run fault-tolerant CPU-Free CG under `cfg.plan`.
///
/// Returns `Err` only for unrecoverable outcomes — a watchdog-diagnosed
/// stall surfaces as [`SimError::Timeout`] naming the stuck PE and the
/// wait-for cycle. All faults covered by the plan classes are recovered
/// transparently, with the overhead visible in `result.total`.
pub fn run_cpu_free_ft(cfg: &CgFtConfig, exec: ExecMode) -> Result<CgFtResult, SimError> {
    let prob = &cfg.prob;
    let machine = prob.machine(exec);
    machine.set_fault_plan(cfg.plan.clone());
    let world = ShmemWorld::init(&machine);
    let slab = prob.slab();
    let len = (slab.max_layers() + 2) * prob.nx;
    let p = world.malloc("p", len);
    let sig_low = world.signal(0);
    let sig_high = world.signal(0);
    let ws = AllreduceWs::new(&world);
    let states: Vec<Arc<PeState>> = (0..prob.n_pes)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                p.local(pe).write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    let geom = Arc::new(halo_geom(prob));
    let rhos = Arc::new(Mutex::new(vec![0.0f64; prob.n_pes]));
    let rollback = Rollback::new(&world);

    let n = prob.n_pes;
    let iters = prob.iterations;
    let hl = halo_len(prob);
    let states_l = states.clone();
    let rhos_l = Arc::clone(&rhos);
    let rollback_l = rollback.clone();
    let end = launch_cpu_free(&machine, "cg_ft", 1024, move |pe| {
        let st = Arc::clone(&states_l[pe]);
        let world = world.clone();
        let p = p.clone();
        let (sig_low, sig_high) = (sig_low.clone(), sig_high.clone());
        let mut ws = ws.clone();
        let geom = Arc::clone(&geom);
        let rhos = Arc::clone(&rhos_l);
        let rollback = rollback_l.clone();
        vec![BlockGroup::new("cgft", 108, move |k| {
            let mut sh = ShmemCtx::new(&world, k);
            let mut w = CgPe {
                st: &st,
                p: &p,
                sig_low: &sig_low,
                sig_high: &sig_high,
                ws: &mut ws,
                geom: &geom,
                pe,
                n,
                hl,
                rho: 0.0,
                snap: None,
            };
            rollback.run_pe(k, &mut sh, pe, iters, &mut w);
            rhos.lock()[pe] = w.rho;
        })]
    })?;

    let result = collect(prob, &machine, &states, end, rhos, ReduceOrder::Doubling);
    let c = rollback.counts();
    Ok(CgFtResult {
        result,
        rollbacks: c.rollbacks,
        retries: c.retries,
        checkpoints: c.checkpoints,
    })
}

/// What one checkpoint captures: the four vectors and the scalar rho.
struct CgSnap {
    x: Vec<f64>,
    r: Vec<f64>,
    q: Vec<f64>,
    p: Vec<f64>,
    rho: f64,
}

/// One PE's CG state: its vectors, halo signals, allreduce workspace and
/// the running rho.
struct CgPe<'a> {
    st: &'a PeState,
    p: &'a SymArray,
    sig_low: &'a SymSignal,
    sig_high: &'a SymSignal,
    ws: &'a mut AllreduceWs,
    geom: &'a HaloGeom,
    pe: usize,
    n: usize,
    hl: usize,
    rho: f64,
    snap: Option<CgSnap>,
}

impl CgPe<'_> {
    /// A local vector op (`bytes` and `flops` per point) over the owned rows,
    /// stretched by any straggler window.
    fn vec_op(&self, k: &mut KernelCtx<'_>, bytes: u64, flops: u64, label: &str, f: impl FnOnce()) {
        let points = (self.st.layers * self.st.nx) as u64;
        let straggle = k.machine().faults().compute_mult(self.pe, k.now());
        vec_op_scaled(k, points, bytes, flops, straggle, label, f);
    }
}

impl Recoverable for CgPe<'_> {
    const LABEL: &'static str = "cgft";

    fn checkpoint_bytes(&self) -> u64 {
        4 * (self.p.local(self.pe).len() * 8) as u64
    }

    fn snapshot(&mut self) {
        let st = self.st;
        self.snap = Some(CgSnap {
            x: st.x.to_vec(),
            r: st.r.to_vec(),
            q: st.q.to_vec(),
            p: self.p.local(self.pe).to_vec(),
            rho: self.rho,
        });
    }

    fn restore(&mut self, k: &mut KernelCtx<'_>, k0: u64) {
        let (st, pe) = (self.st, self.pe);
        if let Some(s) = &self.snap {
            st.x.write_slice(0, &s.x);
            st.r.write_slice(0, &s.r);
            st.q.write_slice(0, &s.q);
            self.p.local(pe).write_slice(0, &s.p);
            self.rho = s.rho;
        }
        // Rewind the allreduce epoch to its fault-free value after k0
        // iterations (rho0 + two calls per iteration) and reset the local
        // collective and halo flags to exactly that state.
        let seq0 = 1 + 2 * k0;
        self.ws.set_seq(seq0);
        self.ws.reset_local(k, pe, seq0);
        k.agent_mut()
            .signal(self.sig_low.flag(pe), SignalOp::Set, k0);
        k.agent_mut()
            .signal(self.sig_high.flag(pe), SignalOp::Set, k0);
    }

    fn scrub(&mut self) {
        self.st.x.fill(f64::NAN);
        self.st.r.fill(f64::NAN);
        self.st.q.fill(f64::NAN);
        self.p.local(self.pe).fill(f64::NAN);
    }

    /// rho0 = <r, r>.
    fn start(&mut self, k: &mut KernelCtx<'_>, sh: &mut ShmemCtx, ft: &mut FtCtx<'_>) {
        let st = self.st;
        let mut partial = 0.0;
        self.vec_op(k, 16, 2, "dot(r,r)", || {
            partial = dot_local(&st.r, &st.r, st.nx, st.layers);
        });
        self.rho = ft
            .allreduce(sh, k, self.ws, partial)
            .expect("rho0 allreduce cannot be interrupted");
    }

    fn iterate(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        ft: &mut FtCtx<'_>,
        t: u64,
    ) -> Result<(), Interrupted> {
        let (st, p, pe, n) = (self.st, self.p, self.pe, self.n);
        let (nx, layers) = (st.nx, st.layers);
        // ① p-halo exchange, reliably (same schedule as the plain run).
        if pe > 0 {
            ft.count_attempts(sh.putmem_signal_reliable(
                k,
                p,
                self.geom.high_halo_of[pe - 1],
                p.local(pe),
                self.geom.first_row,
                self.hl,
                self.sig_high,
                SignalOp::Set,
                t,
                pe - 1,
            ));
        }
        if pe + 1 < n {
            ft.count_attempts(sh.putmem_signal_reliable(
                k,
                p,
                self.geom.low_halo,
                p.local(pe),
                layers * nx,
                self.hl,
                self.sig_low,
                SignalOp::Set,
                t,
                pe + 1,
            ));
        }
        // ② Halo waits, deadline-sliced so lost signals cannot hang us.
        if pe > 0 {
            ft.wait(sh, k, self.sig_low, t)?;
        }
        if pe + 1 < n {
            ft.wait(sh, k, self.sig_high, t)?;
        }

        // ③ q = A p.
        self.vec_op(k, 16, 9, "matvec", || {
            matvec(p.local(pe), &st.q, nx, layers);
        });
        // ④ alpha = rho / <p, q>.
        let mut pq_part = 0.0;
        self.vec_op(k, 16, 2, "dot(p,q)", || {
            pq_part = dot_local(p.local(pe), &st.q, nx, layers);
        });
        let pq = ft.allreduce(sh, k, self.ws, pq_part)?;
        let alpha = self.rho / pq;
        // ⑤ x += alpha p; r -= alpha q.
        self.vec_op(k, 32, 4, "axpy(x,r)", || {
            axpy_xr(&st.x, &st.r, p.local(pe), &st.q, alpha, nx, layers);
        });
        // ⑥ rho' = <r, r>; beta.
        let mut rr_part = 0.0;
        self.vec_op(k, 16, 2, "dot(r,r)", || {
            rr_part = dot_local(&st.r, &st.r, nx, layers);
        });
        let rho_new = ft.allreduce(sh, k, self.ws, rr_part)?;
        let beta = rho_new / self.rho;
        self.rho = rho_new;
        // ⑦ p = r + beta p.
        self.vec_op(k, 24, 2, "update p", || {
            update_p(p.local(pe), &st.r, beta, nx, layers);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::CrashFault;

    #[test]
    fn checked_run_reports_and_recovers_clean() {
        let prob = PoissonProblem::new(34, 34, 10, 4).with_check();
        let clean = run_cpu_free_ft(
            &CgFtConfig::new(prob.clone(), FaultPlan::new()),
            ExecMode::Full,
        )
        .unwrap();
        let report = clean.result.check.expect("a checked run returns a report");
        assert!(report.clean(), "{report}");
        assert!(report.events > 0 && report.accesses > 0);
        let crash = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 6,
        });
        let ex = run_cpu_free_ft(&CgFtConfig::new(prob, crash), ExecMode::Full).unwrap();
        assert_eq!(ex.rollbacks, 1);
        assert_eq!(
            ex.result.final_rho.to_bits(),
            clean.result.final_rho.to_bits()
        );
        let report = ex.result.check.expect("a checked run returns a report");
        assert!(report.clean(), "{report}");
    }
}

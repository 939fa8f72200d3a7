//! The two distributed CG implementations: CPU-Free (one persistent kernel
//! per PE, device-side halo exchange and allreduce) and CPU-controlled
//! (discrete kernels, host-staged reductions, host barriers) — the solver
//! counterpart of the paper's stencil comparison, and the application class
//! (PERKS' CG) the paper cites as benefiting from persistent execution.
//!
//! The CPU-Free set-up (`CpuFreeCg`) and per-PE iteration (`CgPe`) are
//! written once for all three CPU-Free paths; the entry point picks the
//! driver: [`run_cpu_free`] runs them under [`cpufree_core::Blocking`],
//! [`crate::ft::run_cpu_free_ft`] under [`cpufree_core::Rollback`] and
//! [`crate::degraded::run_cpu_free_degraded`] under
//! [`cpufree_core::Quorum`].

use crate::kernels::{axpy_xr, dot_local, matvec, update_p, vec_op};
use crate::problem::{PoissonProblem, ReduceOrder};
use cpufree_core::{
    launch_cpu_free, run_blocking, Blocking, Driver, Halo, Interrupted, Recoverable, RunStats,
};
use gpu_sim::{BlockGroup, Buf, DevId, ExecMode, FaultPlan, KernelCtx, Machine};
use nvshmem_sim::{AllreduceWs, ShmemCtx, ShmemWorld, SymArray, SymSignal};
use sim_des::lock::Mutex;
use sim_des::{Category, SignalOp, SimDur, SimError, SimTime};
use std::sync::Arc;
use stencil_lab::grid::{max_abs_diff, max_dev};

/// Result of one distributed CG run.
#[derive(Debug)]
pub struct CgResult {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// Trace-derived measurements.
    pub stats: RunStats,
    /// Each PE's owned rows of the solution x (layers × nx).
    pub x_owned: Vec<Vec<f64>>,
    /// Final residual norm squared (as computed by the run's own reduction).
    pub final_rho: f64,
    /// The reduction order this run used (for reference matching).
    pub order: ReduceOrder,
    /// Checker report (`None` unless the problem enabled `check`).
    pub check: Option<gpu_sim::CheckReport>,
}

impl CgResult {
    /// Max abs deviation (of every owned slab and of the final rho) from
    /// the order-matched sequential reference; NaN if any differs by NaN.
    pub fn verify(&self, prob: &PoissonProblem) -> f64 {
        let (xref, rho_ref) = prob.reference_cg(self.order);
        let rho_err = (self.final_rho - rho_ref).abs();
        max_dev(
            rho_err,
            slab_deviation(prob, &self.x_owned, &xref, 0..prob.n_pes),
        )
    }
}

/// Max abs deviation of the owned slabs of `pes` from the global reference
/// grid `xref`, compared slab by slab; NaN if any cell differs by NaN.
pub(crate) fn slab_deviation(
    prob: &PoissonProblem,
    x_owned: &[Vec<f64>],
    xref: &[f64],
    pes: impl IntoIterator<Item = usize>,
) -> f64 {
    let (slab, nx) = (prob.slab(), prob.nx);
    pes.into_iter().fold(0.0, |max, pe| {
        let first = (slab.start(pe) + 1) * nx;
        let want = &xref[first..first + slab.layers(pe) * nx];
        max_dev(max, max_abs_diff(&x_owned[pe], want))
    })
}

/// Per-PE workload description shared by every variant.
pub(crate) struct PeState {
    pub(crate) x: Buf,
    pub(crate) r: Buf,
    pub(crate) q: Buf,
    pub(crate) nx: usize,
    pub(crate) layers: usize,
}

pub(crate) fn alloc_state(machine: &Machine, prob: &PoissonProblem, pe: usize) -> PeState {
    let slab = prob.slab();
    let layers = slab.layers(pe);
    let len = (slab.max_layers() + 2) * prob.nx;
    let mk = |n: &str| machine.alloc(DevId(pe), format!("{n}@{pe}"), len);
    let st = PeState {
        x: mk("x"),
        r: mk("r"),
        q: mk("q"),
        nx: prob.nx,
        layers,
    };
    if machine.exec_mode() == ExecMode::Full {
        let b = prob.local_b(pe);
        st.r.write_slice(0, &b); // r0 = b (x0 = 0)
    }
    st
}

/// Offset of PE `pe`'s high p-halo row (its low halo is row 0, its owned
/// rows start at row 1 — the stencil's layout).
fn high_halo(prob: &PoissonProblem, pe: usize) -> usize {
    (prob.slab().layers(pe) + 1) * prob.nx
}

/// Everything one CPU-Free CG run allocates before launch — the same for
/// the plain, fault-tolerant and degraded entry points.
pub(crate) struct CpuFreeCg {
    prob: PoissonProblem,
    pub(crate) machine: Machine,
    pub(crate) world: ShmemWorld,
    p: SymArray,
    sig_low: SymSignal,
    sig_high: SymSignal,
    ws: AllreduceWs,
    pub(crate) states: Vec<Arc<PeState>>,
    /// Each PE's final rho.
    pub(crate) rhos: Mutex<Vec<f64>>,
}

impl CpuFreeCg {
    /// Allocate `prob` on a fresh machine under `plan` (`None`: no fault
    /// plan at all). `ws` allocates the allreduce workspace, whose schedule
    /// fixes the reduction order.
    pub(crate) fn new(
        prob: &PoissonProblem,
        exec: ExecMode,
        plan: Option<&FaultPlan>,
        ws: fn(&ShmemWorld) -> AllreduceWs,
    ) -> Arc<CpuFreeCg> {
        let machine = prob.machine(exec);
        if let Some(plan) = plan {
            machine.set_fault_plan(plan.clone());
        }
        let world = ShmemWorld::init(&machine);
        let len = (prob.slab().max_layers() + 2) * prob.nx;
        // p lives on the symmetric heap (its halos are written remotely).
        let p = world.malloc("p", len);
        let sig_low = world.signal(0);
        let sig_high = world.signal(0);
        let ws = ws(&world);
        let states = (0..prob.n_pes)
            .map(|pe| {
                let st = alloc_state(&machine, prob, pe);
                if exec == ExecMode::Full {
                    // p0 = r0 = b.
                    p.local(pe).write_slice(0, &prob.local_b(pe));
                }
                Arc::new(st)
            })
            .collect();
        Arc::new(CpuFreeCg {
            prob: prob.clone(),
            machine,
            world,
            p,
            sig_low,
            sig_high,
            ws,
            states,
            rhos: Mutex::new(vec![0.0; prob.n_pes]),
        })
    }

    /// Launch the persistent kernel `kernel` (one block group `group` per
    /// PE) and run it: each PE hands its [`CgPe`] to `drive`, which runs it
    /// under a driver; its final rho lands in `rhos`.
    pub(crate) fn launch<F>(
        self: &Arc<Self>,
        kernel: &str,
        group: &'static str,
        drive: F,
    ) -> Result<SimTime, SimError>
    where
        F: FnOnce(&mut KernelCtx<'_>, &mut ShmemCtx, usize, &mut CgPe<'_>)
            + Clone
            + Send
            + Sync
            + 'static,
    {
        let run = Arc::clone(self);
        let sm_count = self.machine.spec().sm_count as u64;
        launch_cpu_free(&self.machine, kernel, move |pe| {
            let (run, drive) = (Arc::clone(&run), drive.clone());
            let mut ws = run.ws.clone();
            vec![BlockGroup::new(group, sm_count, move |k| {
                let mut sh = ShmemCtx::new(&run.world, k);
                let (st, nx) = (&run.states[pe], run.prob.nx);
                let low = (pe > 0).then(|| Halo {
                    nb: pe - 1,
                    dst: high_halo(&run.prob, pe - 1),
                    src: nx,
                    sig_there: &run.sig_high,
                    sig_here: &run.sig_low,
                });
                let high = (pe + 1 < run.prob.n_pes).then(|| Halo {
                    nb: pe + 1,
                    dst: 0,
                    src: st.layers * nx,
                    sig_there: &run.sig_low,
                    sig_here: &run.sig_high,
                });
                let mut w = CgPe {
                    st,
                    p: &run.p,
                    sig_low: &run.sig_low,
                    sig_high: &run.sig_high,
                    ws: &mut ws,
                    halos: low.into_iter().chain(high).collect(),
                    pe,
                    rho: 0.0,
                    snap: None,
                };
                drive(k, &mut sh, pe, &mut w);
                run.rhos.lock()[pe] = w.rho;
            })]
        })
    }

    /// The run's [`CgResult`] once the machine finished at `end`.
    pub(crate) fn collect(&self, end: SimTime) -> CgResult {
        collect(
            &self.prob,
            &self.machine,
            &self.states,
            end,
            &self.rhos,
            ReduceOrder::Doubling,
        )
    }
}

/// Run distributed CG in the **CPU-Free model**: a single persistent
/// cooperative kernel per PE performs the halo exchange, the matvec and
/// vector updates, and the device-side allreduces. The host launches once.
pub fn run_cpu_free(prob: &PoissonProblem, exec: ExecMode) -> CgResult {
    let run = CpuFreeCg::new(prob, exec, None, AllreduceWs::new);
    let iters = prob.iterations;
    let end = run
        .launch("cg", "cg", move |k, sh, pe, w| {
            run_blocking(&mut Blocking, k, sh, pe, iters, w);
        })
        .expect("cpu-free CG run failed");
    run.collect(end)
}

/// What one checkpoint captures: the four vectors and the scalar rho.
struct CgSnap {
    x: Vec<f64>,
    r: Vec<f64>,
    q: Vec<f64>,
    p: Vec<f64>,
    rho: f64,
}

/// One PE's CG state — its vectors, halo signals, allreduce workspace and
/// the running rho — and the one persistent-kernel iteration every CPU-Free
/// path runs: p-halo exchange → matvec → pq-allreduce → axpy →
/// rho-allreduce → p-update.
pub(crate) struct CgPe<'a> {
    st: &'a PeState,
    p: &'a SymArray,
    sig_low: &'a SymSignal,
    sig_high: &'a SymSignal,
    ws: &'a mut AllreduceWs,
    /// The p-halo exchange with each neighbor.
    halos: Vec<Halo<'a>>,
    pe: usize,
    rho: f64,
    snap: Option<CgSnap>,
}

impl CgPe<'_> {
    /// A local vector op (`bytes` and `flops` per point) over the owned rows,
    /// stretched by any straggler window.
    fn vec_op(&self, k: &mut KernelCtx<'_>, bytes: u64, flops: u64, label: &str, f: impl FnOnce()) {
        let points = (self.st.layers * self.st.nx) as u64;
        let straggle = k.machine().faults().compute_mult(self.pe, k.now());
        vec_op(k, points, bytes, flops, straggle, label, f);
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
    fn start<D: Driver>(&mut self, k: &mut KernelCtx<'_>, sh: &mut ShmemCtx, d: &mut D) {
        let st = self.st;
        let mut partial = 0.0;
        self.vec_op(k, 16, 2, "dot(r,r)", || {
            partial = dot_local(&st.r, &st.r, st.nx, st.layers);
        });
        self.rho = d
            .allreduce(sh, k, self.ws, partial, 0)
            .expect("rho0 allreduce cannot be interrupted");
    }

    fn iterate<D: Driver>(
        &mut self,
        k: &mut KernelCtx<'_>,
        sh: &mut ShmemCtx,
        d: &mut D,
        t: u64,
    ) -> Result<(), Interrupted> {
        let (st, p, pe) = (self.st, self.p, self.pe);
        let (nx, layers) = (st.nx, st.layers);
        // ① p-halo exchange with living neighbors (device-initiated,
        // reliable put + flag semaphore).
        for h in &self.halos {
            h.put(d, sh, k, p, nx, t);
        }
        for h in &self.halos {
            h.wait(d, sh, k, t)?;
        }
        // ② q = A p.
        k.check_read(p.local(pe), 0, (layers + 2) * nx, "matvec p read");
        k.check_write(&st.q, nx, (layers + 1) * nx, "matvec q write");
        self.vec_op(k, 16, 9, "matvec", || {
            matvec(p.local(pe), &st.q, nx, layers);
        });
        // ③ alpha = rho / <p, q>.
        let mut pq_part = 0.0;
        self.vec_op(k, 16, 2, "dot(p,q)", || {
            pq_part = dot_local(p.local(pe), &st.q, nx, layers);
        });
        let pq = d.allreduce(sh, k, self.ws, pq_part, t)?;
        let alpha = self.rho / pq;
        // ④ x += alpha p; r -= alpha q.
        self.vec_op(k, 32, 4, "axpy(x,r)", || {
            axpy_xr(&st.x, &st.r, p.local(pe), &st.q, alpha, nx, layers);
        });
        // ⑤ rho' = <r, r>; beta.
        let mut rr_part = 0.0;
        self.vec_op(k, 16, 2, "dot(r,r)", || {
            rr_part = dot_local(&st.r, &st.r, nx, layers);
        });
        let rho_new = d.allreduce(sh, k, self.ws, rr_part, t)?;
        let beta = rho_new / self.rho;
        self.rho = rho_new;
        // ⑥ p = r + beta p.
        k.check_write(p.local(pe), nx, (layers + 1) * nx, "update p write");
        self.vec_op(k, 24, 2, "update p", || {
            update_p(p.local(pe), &st.r, beta, nx, layers);
        });
        Ok(())
    }
}

/// Run distributed CG **CPU-controlled**: discrete kernels per vector op,
/// host-staged dot reductions (device partial → D2H copy → host barrier →
/// linear combine), host-driven halo exchange — the launch/sync-heavy
/// structure persistent execution eliminates.
pub fn run_baseline(prob: &PoissonProblem, exec: ExecMode) -> CgResult {
    let machine = prob.machine(exec);
    let slab = prob.slab();
    let len = (slab.max_layers() + 2) * prob.nx;
    // p in plain device memory; halos exchanged with host memcpys.
    let ps: Vec<Buf> = (0..prob.n_pes)
        .map(|pe| machine.alloc(DevId(pe), format!("p@{pe}"), len))
        .collect();
    let states: Vec<Arc<PeState>> = (0..prob.n_pes)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                ps[pe].write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    // Host-visible slots for the staged allreduce (one per rank).
    let slots = machine.alloc_host("dot.slots", prob.n_pes);
    let bar = machine.barrier(prob.n_pes);
    let rhos = Arc::new(Mutex::new(vec![0.0f64; prob.n_pes]));

    let n = prob.n_pes;
    let iters = prob.iterations;
    for pe in 0..n {
        let st = Arc::clone(&states[pe]);
        let p_mine = ps[pe].clone();
        let p_low = (pe > 0).then(|| (ps[pe - 1].clone(), high_halo(prob, pe - 1)));
        let p_high = (pe + 1 < n).then(|| ps[pe + 1].clone());
        let slots = slots.clone();
        let rhos = Arc::clone(&rhos);
        let machine_c = machine.clone();
        machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let stream = host.create_stream(dev, "comp");
            let partial_dev = machine_c.alloc(dev, "partial", 1);
            let (nx, layers) = (st.nx, st.layers);
            let points = (layers * nx) as u64;
            // Host-staged allreduce of a device partial.
            macro_rules! host_allreduce {
                ($label:expr) => {{
                    // D2H copy of the partial into my slot.
                    host.memcpy_async(&stream, &slots, pe, &partial_dev, 0, 1);
                    host.sync_stream(&stream);
                    host.host_barrier(bar, n);
                    // Linear combine on the host (every rank computes it).
                    let mut acc = slots.get(0);
                    for r in 1..n {
                        acc += slots.get(r);
                    }
                    host.agent_mut()
                        .busy(Category::Api, $label, machine_c.cost().api_call());
                    host.host_barrier(bar, n); // slots free for reuse
                    acc
                }};
            }
            // rho0.
            {
                let (st, pd) = (Arc::clone(&st), partial_dev.clone());
                host.launch(&stream, "dot_rr", move |k| {
                    vec_op(k, points, 16, 2, 1.0, "dot(r,r)", || {
                        pd.set(0, dot_local(&st.r, &st.r, nx, layers));
                    });
                });
            }
            let mut rho = host_allreduce!("combine rho0");
            for _it in 1..=iters {
                // ① host-driven p-halo exchange.
                if let Some((low, dst)) = &p_low {
                    host.memcpy_async(&stream, low, *dst, &p_mine, nx, nx);
                }
                if let Some(high) = &p_high {
                    host.memcpy_async(&stream, high, 0, &p_mine, layers * nx, nx);
                }
                host.sync_stream(&stream);
                host.host_barrier(bar, n);
                // ② matvec.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "matvec", move |k| {
                        vec_op(k, points, 16, 9, 1.0, "matvec", || {
                            matvec(&p, &st.q, nx, layers);
                        });
                    });
                }
                // ③ alpha.
                {
                    let (st, p, pd) = (Arc::clone(&st), p_mine.clone(), partial_dev.clone());
                    host.launch(&stream, "dot_pq", move |k| {
                        vec_op(k, points, 16, 2, 1.0, "dot(p,q)", || {
                            pd.set(0, dot_local(&p, &st.q, nx, layers));
                        });
                    });
                }
                let pq = host_allreduce!("combine pq");
                let alpha = rho / pq;
                // ④ axpy.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "axpy_xr", move |k| {
                        vec_op(k, points, 32, 4, 1.0, "axpy(x,r)", || {
                            axpy_xr(&st.x, &st.r, &p, &st.q, alpha, nx, layers);
                        });
                    });
                }
                // ⑤ rho'.
                {
                    let (st, pd) = (Arc::clone(&st), partial_dev.clone());
                    host.launch(&stream, "dot_rr", move |k| {
                        vec_op(k, points, 16, 2, 1.0, "dot(r,r)", || {
                            pd.set(0, dot_local(&st.r, &st.r, nx, layers));
                        });
                    });
                }
                let rho_new = host_allreduce!("combine rho");
                let beta = rho_new / rho;
                rho = rho_new;
                // ⑥ p update.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "update_p", move |k| {
                        vec_op(k, points, 24, 2, 1.0, "update p", || {
                            update_p(&p, &st.r, beta, nx, layers);
                        });
                    });
                }
                host.sync_stream(&stream);
            }
            rhos.lock()[pe] = rho;
        });
    }
    let end = machine.run().expect("baseline CG run failed");
    collect(prob, &machine, &states, end, &rhos, ReduceOrder::Linear)
}

pub(crate) fn collect(
    prob: &PoissonProblem,
    machine: &Machine,
    states: &[Arc<PeState>],
    end: SimTime,
    rhos: &Mutex<Vec<f64>>,
    order: ReduceOrder,
) -> CgResult {
    let total = end.since(SimTime::ZERO);
    let stats = RunStats::from_trace(&machine.trace(), total, prob.iterations);
    let x_owned = x_owned(states);
    let final_rho = rhos.lock()[0];
    CgResult {
        total,
        stats,
        x_owned,
        final_rho,
        order,
        check: machine.checker().map(|c| c.report()),
    }
}

/// Each PE's owned rows of x.
pub(crate) fn x_owned(states: &[Arc<PeState>]) -> Vec<Vec<f64>> {
    states
        .iter()
        .map(|st| {
            let mut out = vec![0.0; st.layers * st.nx];
            st.x.read_slice(st.nx, &mut out);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_surfaces_a_nan_in_an_owned_slab() {
        // Uneven slabs: 9 interior rows over 4 PEs.
        let prob = PoissonProblem::new(7, 11, 6, 4);
        let mut out = run_cpu_free(&prob, ExecMode::Full);
        assert_eq!(out.verify(&prob).to_bits(), 0.0f64.to_bits());
        let last = out.x_owned[3].len() - 1;
        out.x_owned[3][last] = f64::NAN;
        assert!(out.verify(&prob).is_nan(), "a NaN in x must surface");
    }
}

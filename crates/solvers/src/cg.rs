//! The two distributed CG implementations: CPU-Free (one persistent kernel
//! per PE, device-side halo exchange and allreduce) and CPU-controlled
//! (discrete kernels, host-staged reductions, host barriers) — the solver
//! counterpart of the paper's stencil comparison, and the application class
//! (PERKS' CG) the paper cites as benefiting from persistent execution.

use crate::kernels::{axpy_xr, dot_local, matvec, update_p, vec_op};
use crate::problem::{PoissonProblem, ReduceOrder};
use cpufree_core::{launch_cpu_free, RunStats};
use gpu_sim::{BlockGroup, Buf, DevId, ExecMode, Machine};
use nvshmem_sim::{allreduce_scalar, AllreduceWs, ReduceOp, ShmemCtx, ShmemWorld};
use sim_des::lock::Mutex;
use sim_des::{Category, Cmp, SignalOp, SimDur, SimTime};
use std::sync::Arc;

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
    /// Assemble the global x grid (boundary zeros).
    pub fn gather(&self, prob: &PoissonProblem) -> Vec<f64> {
        let nx = prob.nx;
        let slab = prob.slab();
        let mut full = vec![0.0; nx * prob.ny];
        for (pe, owned) in self.x_owned.iter().enumerate() {
            let start = slab.start(pe);
            full[(start + 1) * nx..(start + 1 + slab.layers(pe)) * nx].copy_from_slice(owned);
        }
        full
    }

    /// Max abs deviation from the order-matched sequential reference.
    pub fn verify(&self, prob: &PoissonProblem) -> f64 {
        let (xref, rho_ref) = prob.reference_cg(self.order);
        let mine = self.gather(prob);
        let x_err = mine
            .iter()
            .zip(&xref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let rho_err = (self.final_rho - rho_ref).abs();
        x_err.max(rho_err)
    }
}

/// Per-PE workload description shared by both variants.
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

/// Elements a halo row carries.
pub(crate) fn halo_len(prob: &PoissonProblem) -> usize {
    prob.nx
}

/// Per-iteration p-halo exchange offsets (same layout as the stencil).
pub(crate) struct HaloGeom {
    pub(crate) first_row: usize,
    pub(crate) low_halo: usize,
    pub(crate) high_halo_of: Vec<usize>,
}

pub(crate) fn halo_geom(prob: &PoissonProblem) -> HaloGeom {
    let slab = prob.slab();
    HaloGeom {
        first_row: prob.nx,
        low_halo: 0,
        high_halo_of: (0..prob.n_pes)
            .map(|pe| (slab.layers(pe) + 1) * prob.nx)
            .collect(),
    }
}

/// Run distributed CG in the **CPU-Free model**: a single persistent
/// cooperative kernel per PE performs the halo exchange, the matvec and
/// vector updates, and the device-side allreduces. The host launches once.
pub fn run_cpu_free(prob: &PoissonProblem, exec: ExecMode) -> CgResult {
    let machine = prob.machine(exec);
    let world = ShmemWorld::init(&machine);
    let slab = prob.slab();
    let len = (slab.max_layers() + 2) * prob.nx;
    // p lives on the symmetric heap (its halos are written remotely).
    let p = world.malloc("p", len);
    let sig_low = world.signal(0);
    let sig_high = world.signal(0);
    let ws = AllreduceWs::new(&world);
    let states: Vec<Arc<PeState>> = (0..prob.n_pes)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                // p0 = r0 = b.
                p.local(pe).write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    let geom = Arc::new(halo_geom(prob));
    let rhos = Arc::new(Mutex::new(vec![0.0f64; prob.n_pes]));

    let n = prob.n_pes;
    let iters = prob.iterations;
    let prob_c = prob.clone();
    let states_l = states.clone();
    let rhos_l = Arc::clone(&rhos);
    let end = launch_cpu_free(&machine, "cg", 1024, move |pe| {
        let st = Arc::clone(&states_l[pe]);
        let world = world.clone();
        let p = p.clone();
        let (sig_low, sig_high) = (sig_low.clone(), sig_high.clone());
        let mut ws = ws.clone();
        let geom = Arc::clone(&geom);
        let rhos = Arc::clone(&rhos_l);
        let hl = halo_len(&prob_c);
        vec![BlockGroup::new("cg", 108, move |k| {
            let mut sh = ShmemCtx::new(&world, k);
            let checker = k.machine().checker();
            let (nx, layers) = (st.nx, st.layers);
            let points = (layers * nx) as u64;
            // rho0 = <r, r>.
            let mut partial = 0.0;
            vec_op(k, points, 16, 2, "dot(r,r)", || {
                partial = dot_local(&st.r, &st.r, nx, layers);
            });
            let mut rho = allreduce_scalar(&mut sh, k, &mut ws, partial, ReduceOp::Sum);
            for it in 1..=iters {
                if let Some(chk) = &checker {
                    chk.iteration(pe, it, &k.agent().name(), k.now());
                }
                // ① p-halo exchange (device-initiated, flag semaphore).
                if pe > 0 {
                    sh.putmem_signal_nbi(
                        k,
                        &p,
                        geom.high_halo_of[pe - 1],
                        p.local(pe),
                        geom.first_row,
                        hl,
                        &sig_high,
                        SignalOp::Set,
                        it,
                        pe - 1,
                    );
                }
                if pe + 1 < n {
                    sh.putmem_signal_nbi(
                        k,
                        &p,
                        geom.low_halo,
                        p.local(pe),
                        layers * nx,
                        hl,
                        &sig_low,
                        SignalOp::Set,
                        it,
                        pe + 1,
                    );
                }
                if pe > 0 {
                    sh.signal_wait_until(k, &sig_low, Cmp::Ge, it);
                }
                if pe + 1 < n {
                    sh.signal_wait_until(k, &sig_high, Cmp::Ge, it);
                }
                // ② q = A p.
                k.check_read(p.local(pe), 0, (layers + 2) * nx, "matvec p read");
                k.check_write(&st.q, nx, (layers + 1) * nx, "matvec q write");
                vec_op(k, points, 16, 9, "matvec", || {
                    matvec(p.local(pe), &st.q, nx, layers);
                });
                // ③ alpha = rho / <p, q>.
                let mut pq_part = 0.0;
                vec_op(k, points, 16, 2, "dot(p,q)", || {
                    pq_part = dot_local(p.local(pe), &st.q, nx, layers);
                });
                let pq = allreduce_scalar(&mut sh, k, &mut ws, pq_part, ReduceOp::Sum);
                let alpha = rho / pq;
                // ④ x += alpha p; r -= alpha q.
                vec_op(k, points, 32, 4, "axpy(x,r)", || {
                    axpy_xr(&st.x, &st.r, p.local(pe), &st.q, alpha, nx, layers);
                });
                // ⑤ rho' = <r, r>; beta.
                let mut rr_part = 0.0;
                vec_op(k, points, 16, 2, "dot(r,r)", || {
                    rr_part = dot_local(&st.r, &st.r, nx, layers);
                });
                let rho_new = allreduce_scalar(&mut sh, k, &mut ws, rr_part, ReduceOp::Sum);
                let beta = rho_new / rho;
                rho = rho_new;
                // ⑥ p = r + beta p.
                k.check_write(p.local(pe), nx, (layers + 1) * nx, "update p write");
                vec_op(k, points, 24, 2, "update p", || {
                    update_p(p.local(pe), &st.r, beta, nx, layers);
                });
            }
            rhos.lock()[pe] = rho;
        })]
    })
    .expect("cpu-free CG run failed");
    collect(prob, &machine, &states, end, rhos, ReduceOrder::Doubling)
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
    let geom = Arc::new(halo_geom(prob));
    let bar = machine.barrier(prob.n_pes);
    let rhos = Arc::new(Mutex::new(vec![0.0f64; prob.n_pes]));

    let n = prob.n_pes;
    let iters = prob.iterations;
    for pe in 0..n {
        let st = Arc::clone(&states[pe]);
        let p_mine = ps[pe].clone();
        let p_low = (pe > 0).then(|| ps[pe - 1].clone());
        let p_high = (pe + 1 < n).then(|| ps[pe + 1].clone());
        let slots = slots.clone();
        let geom = Arc::clone(&geom);
        let rhos = Arc::clone(&rhos);
        let hl = halo_len(prob);
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
                    vec_op(k, points, 16, 2, "dot(r,r)", || {
                        pd.set(0, dot_local(&st.r, &st.r, nx, layers));
                    });
                });
            }
            let mut rho = host_allreduce!("combine rho0");
            for _it in 1..=iters {
                // ① host-driven p-halo exchange.
                if let Some(low) = &p_low {
                    host.memcpy_async(
                        &stream,
                        low,
                        geom.high_halo_of[pe - 1],
                        &p_mine,
                        geom.first_row,
                        hl,
                    );
                }
                if let Some(high) = &p_high {
                    host.memcpy_async(&stream, high, geom.low_halo, &p_mine, layers * nx, hl);
                }
                host.sync_stream(&stream);
                host.host_barrier(bar, n);
                // ② matvec.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "matvec", move |k| {
                        vec_op(k, points, 16, 9, "matvec", || {
                            matvec(&p, &st.q, nx, layers);
                        });
                    });
                }
                // ③ alpha.
                {
                    let (st, p, pd) = (Arc::clone(&st), p_mine.clone(), partial_dev.clone());
                    host.launch(&stream, "dot_pq", move |k| {
                        vec_op(k, points, 16, 2, "dot(p,q)", || {
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
                        vec_op(k, points, 32, 4, "axpy(x,r)", || {
                            axpy_xr(&st.x, &st.r, &p, &st.q, alpha, nx, layers);
                        });
                    });
                }
                // ⑤ rho'.
                {
                    let (st, pd) = (Arc::clone(&st), partial_dev.clone());
                    host.launch(&stream, "dot_rr", move |k| {
                        vec_op(k, points, 16, 2, "dot(r,r)", || {
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
                        vec_op(k, points, 24, 2, "update p", || {
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
    collect(prob, &machine, &states, end, rhos, ReduceOrder::Linear)
}

pub(crate) fn collect(
    prob: &PoissonProblem,
    machine: &Machine,
    states: &[Arc<PeState>],
    end: SimTime,
    rhos: Arc<Mutex<Vec<f64>>>,
    order: ReduceOrder,
) -> CgResult {
    let total = end.since(SimTime::ZERO);
    let stats = RunStats::from_trace(&machine.trace(), total, prob.iterations);
    let x_owned = states
        .iter()
        .map(|st| {
            let mut out = vec![0.0; st.layers * st.nx];
            st.x.read_slice(st.nx, &mut out);
            out
        })
        .collect();
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

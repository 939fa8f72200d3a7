//! Degraded-mode CPU-Free CG: when a PE crashes, the surviving quorum
//! finishes the solve among themselves — the solver counterpart of
//! [`stencil_lab::degraded`].
//!
//! # Model
//!
//! * A [`sim_des::CrashFault`] is a *permanent* death at the start of
//!   iteration `d` (plan-derived "oracle membership", see
//!   [`gpu_sim::alive_at`]): the PE completes iterations `1..d` fully —
//!   its last halo push (at iteration `d-1`) carried the search direction
//!   as of the end of iteration `d-2`, and that boundary row stays frozen
//!   in the neighbors' halos forever after.
//! * Every global reduction is a **healed quorum collective**
//!   ([`nvshmem_sim::Members::Quorum`]): at iteration `t` exactly
//!   the members of `alive_at(plan, n, t)` contribute, combined in global
//!   PE-index order, so every survivor holds the bitwise identical
//!   `alpha`/`beta`.
//! * A **killed link** between survivors is rerouted inside the transport
//!   ([`gpu_sim::HealedRoutes`]) — no protocol change, results bit-equal
//!   to the fault-free run.
//!
//! The oracle is [`degraded_reference_cg`]: the sequential CG mirror with
//! dead slabs frozen, halo snapshots for the matvec, and dots restricted
//! to the living quorum. Survivors must match it **bit for bit**.

use crate::kernels::{axpy_xr, dot_local, matvec, update_p, vec_op, vec_op_scaled};
use crate::problem::PoissonProblem;
use cpufree_core::launch_cpu_free;
use gpu_sim::{alive_at, BlockGroup, CheckReport, ExecMode, FaultPlan, KernelCtx};
use nvshmem_sim::{allreduce, wait_from, AllreduceWs, Members, ReduceOp, ShmemCtx, ShmemWorld};
use sim_des::lock::Mutex;
use sim_des::{Cmp, SignalOp, SimDur, SimError, SimTime};
use std::sync::Arc;

use crate::cg::{alloc_state, halo_geom, halo_len, PeState};

/// Result of a degraded-mode CG run.
#[derive(Debug)]
pub struct CgDegradedResult {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// The surviving quorum (ascending PE ids).
    pub quorum: Vec<usize>,
    /// Each PE's owned rows of x; only quorum members' slabs are
    /// meaningful (dead slabs are scrubbed).
    pub x_owned: Vec<Vec<f64>>,
    /// Final residual norm squared, as reduced over the final quorum (the
    /// PEs whose partial dots entered it).
    pub final_rho: f64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Link pairs dead by the end of the run (rerouted around).
    pub dead_pairs: Vec<(usize, usize)>,
    /// Checker report (`None` unless the problem enabled `check`).
    pub check: Option<CheckReport>,
}

impl CgDegradedResult {
    /// Max abs deviation of the survivors' slabs (and final rho) from the
    /// sequential [`degraded_reference_cg`] — `0.0` when bit-exact.
    pub fn verify(&self, prob: &PoissonProblem, plan: &FaultPlan) -> f64 {
        let (xref, rho_ref) = degraded_reference_cg(prob, plan);
        let slab = prob.slab();
        let nx = prob.nx;
        let mut max = (self.final_rho - rho_ref).abs();
        for &pe in &self.quorum {
            let start = slab.start(pe);
            let want = &xref[(start + 1) * nx..(start + 1 + slab.layers(pe)) * nx];
            for (got, want) in self.x_owned[pe].iter().zip(want) {
                max = max.max((got - want).abs());
            }
        }
        max
    }
}

/// Run distributed CG in the CPU-Free model under `plan`, degrading onto
/// the surviving quorum instead of recovering.
pub fn run_cpu_free_degraded(
    prob: &PoissonProblem,
    plan: &FaultPlan,
    exec: ExecMode,
) -> Result<CgDegradedResult, SimError> {
    let n = prob.n_pes;
    let iters = prob.iterations;
    let quorum = alive_at(plan, n, iters);
    assert!(
        !quorum.is_empty(),
        "degraded CG needs at least one survivor (plan kills everyone)"
    );
    let machine = prob.machine(exec);
    machine.set_fault_plan(plan.clone());
    let world = ShmemWorld::init(&machine);
    let slab = prob.slab();
    let len = (slab.max_layers() + 2) * prob.nx;
    let p = world.malloc("p", len);
    let sig_low = world.signal(0);
    let sig_high = world.signal(0);
    let ws = AllreduceWs::new_ring(&world);
    let states: Vec<Arc<PeState>> = (0..n)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                p.local(pe).write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    let geom = Arc::new(halo_geom(prob));
    let rhos = Arc::new(Mutex::new(vec![0.0f64; n]));
    let retries = Arc::new(Mutex::new(0u64));

    let prob_c = prob.clone();
    let plan_c = plan.clone();
    let states_l = states.clone();
    let rhos_l = Arc::clone(&rhos);
    let retries_l = Arc::clone(&retries);
    let end = launch_cpu_free(&machine, "cg_degraded", 1024, move |pe| {
        let st = Arc::clone(&states_l[pe]);
        let world = world.clone();
        let p = p.clone();
        let (sig_low, sig_high) = (sig_low.clone(), sig_high.clone());
        let mut ws = ws.clone();
        let geom = Arc::clone(&geom);
        let rhos = Arc::clone(&rhos_l);
        let retries = Arc::clone(&retries_l);
        let hl = halo_len(&prob_c);
        let prob = prob_c.clone();
        let plan = plan_c.clone();
        vec![BlockGroup::new("cg", 108, move |k| {
            let mut sh = ShmemCtx::new(&world, k);
            let faults = k.machine().faults();
            let checker = k.machine().checker();
            let (nx, layers) = (st.nx, st.layers);
            let points = (layers * nx) as u64;
            let n = prob.n_pes;
            let my_death = faults.crash_iteration(pe).map(|d| d.max(1));
            let death_low = (pe > 0)
                .then(|| faults.crash_iteration(pe - 1).map(|d| d.max(1)))
                .flatten();
            let death_high = (pe + 1 < n)
                .then(|| faults.crash_iteration(pe + 1).map(|d| d.max(1)))
                .flatten();
            let mut spent = 0u64;
            // rho0 = <r, r> over the full world (death begins at t >= 1).
            let everyone: Vec<usize> = (0..n).collect();
            let mut partial = 0.0;
            vec_op(k, points, 16, 2, "dot(r,r)", || {
                partial = dot_local(&st.r, &st.r, nx, layers);
            });
            let mut rho = quorum_sum(&mut sh, k, &mut ws, partial, &everyone, &mut spent);
            for it in 1..=prob.iterations {
                // ⓪ Scheduled death: drain in-flight puts (their sources
                // must leave intact), scrub, stop forever.
                if my_death == Some(it) {
                    sh.quiet(k);
                    if k.exec_mode() == ExecMode::Full {
                        st.x.fill(f64::NAN);
                        st.r.fill(f64::NAN);
                        st.q.fill(f64::NAN);
                        p.local(pe).fill(f64::NAN);
                    }
                    k.busy(sim_des::Category::Api, "degraded.die", sim_des::us(1.0));
                    *retries.lock() += spent;
                    return;
                }
                let members = alive_at(&plan, n, it);
                if let Some(chk) = &checker {
                    chk.iteration(pe, it, &k.agent().name(), k.now());
                }
                // ① p-halo exchange with *living* neighbors, reliably.
                if pe > 0 && death_low.is_none_or(|d| it < d) {
                    spent += (sh.putmem_signal_reliable(
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
                    ) - 1) as u64;
                }
                if pe + 1 < n && death_high.is_none_or(|d| it < d) {
                    spent += (sh.putmem_signal_reliable(
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
                    ) - 1) as u64;
                }
                // Waits clamp at a dead neighbor's last committed push.
                if pe > 0 {
                    let target = death_low.map_or(it, |d| it.min(d - 1));
                    sh.signal_wait_from(k, &sig_low, Cmp::Ge, target, pe - 1);
                }
                if pe + 1 < n {
                    let target = death_high.map_or(it, |d| it.min(d - 1));
                    sh.signal_wait_from(k, &sig_high, Cmp::Ge, target, pe + 1);
                }
                // ② q = A p (straggler windows stretch the kernel).
                let straggle = faults.compute_mult(pe, k.now());
                k.check_read(p.local(pe), 0, (layers + 2) * nx, "matvec p read");
                k.check_write(&st.q, nx, (layers + 1) * nx, "matvec q write");
                vec_op_scaled(k, points, 16, 9, straggle, "matvec", || {
                    matvec(p.local(pe), &st.q, nx, layers);
                });
                // ③ alpha = rho / <p, q> over the quorum.
                let mut pq_part = 0.0;
                vec_op(k, points, 16, 2, "dot(p,q)", || {
                    pq_part = dot_local(p.local(pe), &st.q, nx, layers);
                });
                let pq = quorum_sum(&mut sh, k, &mut ws, pq_part, &members, &mut spent);
                let alpha = rho / pq;
                // ④ x += alpha p; r -= alpha q.
                vec_op(k, points, 32, 4, "axpy(x,r)", || {
                    axpy_xr(&st.x, &st.r, p.local(pe), &st.q, alpha, nx, layers);
                });
                // ⑤ rho' = <r, r> over the quorum; beta.
                let mut rr_part = 0.0;
                vec_op(k, points, 16, 2, "dot(r,r)", || {
                    rr_part = dot_local(&st.r, &st.r, nx, layers);
                });
                let rho_new = quorum_sum(&mut sh, k, &mut ws, rr_part, &members, &mut spent);
                let beta = rho_new / rho;
                rho = rho_new;
                // ⑥ p = r + beta p.
                k.check_write(p.local(pe), nx, (layers + 1) * nx, "update p write");
                vec_op(k, points, 24, 2, "update p", || {
                    update_p(p.local(pe), &st.r, beta, nx, layers);
                });
            }
            rhos.lock()[pe] = rho;
            *retries.lock() += spent;
        })]
    })?;

    let total = end.since(SimTime::ZERO);
    let x_owned: Vec<Vec<f64>> = states
        .iter()
        .map(|st| {
            let mut out = vec![0.0; st.layers * st.nx];
            st.x.read_slice(st.nx, &mut out);
            out
        })
        .collect();
    let rhos = rhos.lock();
    let final_rho = rhos[quorum[0]];
    // Every survivor must hold the bitwise identical rho.
    for &pe in &quorum {
        assert_eq!(
            rhos[pe].to_bits(),
            final_rho.to_bits(),
            "quorum rho diverged on pe{pe}"
        );
    }
    let retries = *retries.lock();
    Ok(CgDegradedResult {
        total,
        quorum,
        x_owned,
        final_rho,
        retries,
        dead_pairs: machine.faults().dead_pairs(end),
        check: machine.checker().map(|c| c.report()),
    })
}

/// Blocking sum over the living quorum; every wait declares its peer, so
/// a run that never completes is attributed with a wait-for edge.
fn quorum_sum(
    sh: &mut ShmemCtx,
    k: &mut KernelCtx<'_>,
    ws: &mut AllreduceWs,
    value: f64,
    members: &[usize],
    retries: &mut u64,
) -> f64 {
    allreduce(
        sh,
        k,
        ws,
        value,
        ReduceOp::Sum,
        Members::Quorum(members),
        &mut wait_from,
        retries,
    )
    .expect("blocking quorum allreduce")
}

/// The sequential oracle for degraded CG: the [`PoissonProblem`] reference
/// solve with (a) dead slabs frozen at their last completed state, (b) the
/// matvec reading **halo snapshots** — an alive PE republishes its search
/// direction each iteration, a dead PE's rows stay at the last value it
/// pushed (end of iteration `d-2`) — and (c) every dot restricted to the
/// iteration's living quorum, combined linearly in ascending PE order
/// (exactly the quorum [`nvshmem_sim::allreduce`]'s order). Returns the
/// full x grid and the survivors' final residual norm squared.
pub fn degraded_reference_cg(prob: &PoissonProblem, plan: &FaultPlan) -> (Vec<f64>, f64) {
    let (nx, ny) = (prob.nx, prob.ny);
    let n = prob.n_pes;
    let slab = prob.slab();
    let idx = |i: usize, j: usize| i * nx + j;
    let death: Vec<Option<u64>> = (0..n)
        .map(|pe| {
            plan.crashes
                .iter()
                .filter(|c| c.node == pe)
                .map(|c| c.at_iteration)
                .min()
                .map(|d| d.max(1))
        })
        .collect();
    let alive = |pe: usize, t: u64| death[pe].is_none_or(|d| t < d);

    let mut b = vec![0.0; nx * ny];
    for i in 0..ny {
        for j in 0..nx {
            b[idx(i, j)] = prob.b_value(i, j);
        }
    }
    let mut x = vec![0.0; nx * ny];
    let mut r = b;
    let mut p = r.clone();
    // The halo-visible copy of p: alive PEs republish their rows each
    // iteration; a dead PE's rows freeze at its last push.
    let mut pv = p.clone();
    let mut q = vec![0.0; nx * ny];

    let dot = |a: &[f64], c: &[f64], t: u64| -> f64 {
        let partials: Vec<f64> = (0..n)
            .filter(|&pe| alive(pe, t))
            .map(|pe| {
                let (start, layers) = (slab.start(pe), slab.layers(pe));
                let mut acc = 0.0;
                for i in start + 1..start + 1 + layers {
                    for j in 0..nx {
                        acc += a[idx(i, j)] * c[idx(i, j)];
                    }
                }
                acc
            })
            .collect();
        // Ascending-PE linear fold == the quorum collective's order.
        partials[1..].iter().fold(partials[0], |acc, v| acc + v)
    };

    let mut rho = dot(&r, &r, 0);
    for it in 1..=prob.iterations {
        // ① Alive PEs publish their current search direction.
        for pe in 0..n {
            if alive(pe, it) {
                let (start, layers) = (slab.start(pe), slab.layers(pe));
                pv[(start + 1) * nx..(start + 1 + layers) * nx]
                    .copy_from_slice(&p[(start + 1) * nx..(start + 1 + layers) * nx]);
            }
        }
        // ② q = A pv on alive rows only.
        for pe in 0..n {
            if !alive(pe, it) {
                continue;
            }
            let (start, layers) = (slab.start(pe), slab.layers(pe));
            for i in start + 1..start + 1 + layers {
                for j in 1..nx - 1 {
                    q[idx(i, j)] = 4.0 * pv[idx(i, j)]
                        - pv[idx(i - 1, j)]
                        - pv[idx(i + 1, j)]
                        - pv[idx(i, j - 1)]
                        - pv[idx(i, j + 1)];
                }
            }
        }
        let pq = dot(&p, &q, it);
        let alpha = rho / pq;
        // ③ axpy on alive rows.
        for pe in 0..n {
            if !alive(pe, it) {
                continue;
            }
            let (start, layers) = (slab.start(pe), slab.layers(pe));
            for i in start + 1..start + 1 + layers {
                for j in 0..nx {
                    x[idx(i, j)] += alpha * p[idx(i, j)];
                    r[idx(i, j)] -= alpha * q[idx(i, j)];
                }
            }
        }
        let rho_new = dot(&r, &r, it);
        let beta = rho_new / rho;
        rho = rho_new;
        // ④ p update on alive rows.
        for pe in 0..n {
            if !alive(pe, it) {
                continue;
            }
            let (start, layers) = (slab.start(pe), slab.layers(pe));
            for i in start + 1..start + 1 + layers {
                for j in 0..nx {
                    p[idx(i, j)] = r[idx(i, j)] + beta * p[idx(i, j)];
                }
            }
        }
    }
    (x, rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ReduceOrder;
    use gpu_sim::TopologyKind;
    use sim_des::{CrashFault, LinkFault};

    fn prob(kind: TopologyKind) -> PoissonProblem {
        PoissonProblem::new(18, 18, 8, 4).with_topology(kind)
    }

    #[test]
    fn fault_free_degraded_matches_linear_reference() {
        let p = prob(TopologyKind::NvlinkAllToAll);
        let plan = FaultPlan::new();
        let out = run_cpu_free_degraded(&p, &plan, ExecMode::Full).unwrap();
        assert_eq!(out.quorum, vec![0, 1, 2, 3]);
        assert_eq!(out.verify(&p, &plan), 0.0);
        // With nobody dead the mirror equals the plain linear reference.
        let (xref, rho_ref) = p.reference_cg(ReduceOrder::Linear);
        let (xd, rho_d) = degraded_reference_cg(&p, &plan);
        assert_eq!(xd, xref);
        assert_eq!(rho_d.to_bits(), rho_ref.to_bits());
    }

    #[test]
    fn single_pe_crash_survivors_verify_on_all_presets() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 3,
        });
        let mut rhos = Vec::new();
        for kind in TopologyKind::presets() {
            let p = prob(kind);
            let out = run_cpu_free_degraded(&p, &plan, ExecMode::Full).unwrap();
            assert_eq!(out.quorum, vec![0, 2, 3], "{}", kind.name());
            assert_eq!(out.verify(&p, &plan), 0.0, "{}", kind.name());
            rhos.push(out.final_rho.to_bits());
        }
        // Bit-identical across presets.
        assert!(rhos.windows(2).all(|w| w[0] == w[1]), "{rhos:?}");
    }

    #[test]
    fn single_link_kill_is_bit_identical_to_fault_free() {
        for kind in TopologyKind::presets() {
            let p = prob(kind);
            let clean = run_cpu_free_degraded(&p, &FaultPlan::new(), ExecMode::Full).unwrap();
            let plan =
                FaultPlan::new().with_link(LinkFault::kill(2, 3, SimTime::ZERO + sim_des::us(5.0)));
            let out = run_cpu_free_degraded(&p, &plan, ExecMode::Full).unwrap();
            assert_eq!(out.quorum, vec![0, 1, 2, 3], "{}", kind.name());
            assert_eq!(
                out.final_rho.to_bits(),
                clean.final_rho.to_bits(),
                "{}",
                kind.name()
            );
            assert_eq!(out.x_owned, clean.x_owned, "{}", kind.name());
            assert_eq!(out.dead_pairs, vec![(2, 3)], "{}", kind.name());
            assert_eq!(out.verify(&p, &plan), 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn crash_at_first_iteration_still_verifies() {
        // The dying PE contributes to rho0, then never iterates.
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 3,
            at_iteration: 1,
        });
        let p = prob(TopologyKind::TwoNode);
        let out = run_cpu_free_degraded(&p, &plan, ExecMode::Full).unwrap();
        assert_eq!(out.quorum, vec![0, 1, 2]);
        assert_eq!(out.verify(&p, &plan), 0.0);
    }

    #[test]
    fn degraded_cg_is_deterministic() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 0,
            at_iteration: 2,
        });
        let run = || {
            let p = prob(TopologyKind::NvlinkRing);
            let out = run_cpu_free_degraded(&p, &plan, ExecMode::Full).unwrap();
            (out.total, out.final_rho.to_bits(), out.retries)
        };
        assert_eq!(run(), run());
    }
}

//! Degraded-mode CPU-Free CG: when a PE crashes, the surviving quorum
//! finishes the solve among themselves — the solver counterpart of
//! [`stencil_lab::degraded`]. The set-up and iteration are those of
//! [`crate::cg::run_cpu_free`], run under the [`cpufree_core::Quorum`]
//! driver with a ring allreduce workspace.
//!
//! # Model
//!
//! * A [`sim_des::CrashFault`] is a *permanent* death at the start of
//!   iteration `d` ([`FaultPlan::crash_iteration`]; plan-derived "oracle
//!   membership", see [`gpu_sim::alive_at`]): the PE completes iterations
//!   `1..d` fully — its last halo push (at iteration `d-1`) carried the
//!   search direction as of the end of iteration `d-2`, and that boundary
//!   row stays frozen in the neighbors' halos forever after.
//! * Every global reduction is a **healed quorum collective**
//!   ([`nvshmem_sim::Members::Quorum`]): at iteration `t` exactly
//!   the members of `alive_at(plan, n, t)` contribute, combined in global
//!   PE-index order, so every survivor holds the bitwise identical
//!   `alpha`/`beta`.
//! * A **killed link** between survivors is rerouted inside the transport
//!   ([`gpu_sim::HealedRoutes`]) — no protocol change, results bit-equal
//!   to the fault-free run.
//! * A **straggler** window stretches every local vector kernel of the
//!   slow PE, as under rollback.
//!
//! The oracle is [`degraded_reference_cg`]: the sequential CG mirror with
//! dead slabs frozen, halo snapshots for the matvec, and dots restricted
//! to the living quorum. Survivors must match it **bit for bit**.

use crate::cg::{slab_deviation, x_owned, CpuFreeCg};
use crate::ft::CgFtConfig;
use crate::kernels::{axpy_xr_rows, dot_rows, matvec_rows, update_p_rows};
use crate::problem::PoissonProblem;
use cpufree_core::{run_blocking, Quorum};
use gpu_sim::{alive_at, CheckReport, ExecMode, FaultPlan};
use nvshmem_sim::AllreduceWs;
use sim_des::{SimDur, SimError, SimTime};
use stencil_lab::grid::max_dev;

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
    /// sequential [`degraded_reference_cg`] — `0.0` when bit-exact, NaN if
    /// any differs by NaN.
    pub fn verify(&self, prob: &PoissonProblem, plan: &FaultPlan) -> f64 {
        let (xref, rho_ref) = degraded_reference_cg(prob, plan);
        let rho_err = (self.final_rho - rho_ref).abs();
        let quorum = self.quorum.iter().copied();
        max_dev(rho_err, slab_deviation(prob, &self.x_owned, &xref, quorum))
    }
}

/// Run distributed CG in the CPU-Free model under `cfg.plan`, degrading
/// onto the surviving quorum instead of recovering.
pub fn run_cpu_free_degraded(
    cfg: &CgFtConfig,
    exec: ExecMode,
) -> Result<CgDegradedResult, SimError> {
    let (prob, plan) = (&cfg.prob, &cfg.plan);
    let iters = prob.iterations;
    let quorum = alive_at(plan, prob.n_pes, iters);
    assert!(
        !quorum.is_empty(),
        "degraded CG needs at least one survivor (plan kills everyone)"
    );
    let run = CpuFreeCg::new(prob, exec, Some(plan), AllreduceWs::new_ring);
    let driver = Quorum::new(&run.world);
    let mut driver_l = driver.clone();
    let end = run.launch("cg_degraded", "cg", move |k, sh, pe, w| {
        run_blocking(&mut driver_l, k, sh, pe, iters, w);
    })?;

    let total = end.since(SimTime::ZERO);
    let x_owned = x_owned(&run.states);
    let rhos = run.rhos.lock();
    let final_rho = rhos[quorum[0]];
    // Every survivor must hold the bitwise identical rho.
    for &pe in &quorum {
        assert_eq!(
            rhos[pe].to_bits(),
            final_rho.to_bits(),
            "quorum rho diverged on pe{pe}"
        );
    }
    Ok(CgDegradedResult {
        total,
        quorum,
        x_owned,
        final_rho,
        retries: driver.retries(),
        dead_pairs: run.machine.faults().dead_pairs(end),
        check: run.machine.checker().map(|c| c.report()),
    })
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
    // The global rows PE `pe` owns, inclusive.
    let rows = |pe: usize| (slab.start(pe) + 1, slab.start(pe) + slab.layers(pe));

    let mut b = vec![0.0; nx * ny];
    for i in 0..ny {
        for j in 0..nx {
            b[i * nx + j] = prob.b_value(i, j);
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
        let partials: Vec<f64> = alive_at(plan, n, t)
            .into_iter()
            .map(|pe| dot_rows(a, c, nx, rows(pe)))
            .collect();
        // Ascending-PE linear fold == the quorum collective's order.
        partials[1..].iter().fold(partials[0], |acc, v| acc + v)
    };

    let mut rho = dot(&r, &r, 0);
    for it in 1..=prob.iterations {
        let alive = alive_at(plan, n, it);
        // ① Alive PEs publish their current search direction.
        for &pe in &alive {
            let (lo, hi) = rows(pe);
            pv[lo * nx..(hi + 1) * nx].copy_from_slice(&p[lo * nx..(hi + 1) * nx]);
        }
        // ② q = A pv on alive rows only.
        for &pe in &alive {
            matvec_rows(&pv, &mut q, nx, rows(pe));
        }
        let alpha = rho / dot(&p, &q, it);
        // ③ axpy on alive rows.
        for &pe in &alive {
            axpy_xr_rows(&mut x, &mut r, &p, &q, alpha, nx, rows(pe));
        }
        let rho_new = dot(&r, &r, it);
        let beta = rho_new / rho;
        rho = rho_new;
        // ④ p update on alive rows.
        for &pe in &alive {
            update_p_rows(&mut p, &r, beta, nx, rows(pe));
        }
    }
    (x, rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ReduceOrder;
    use gpu_sim::TopologyKind;
    use sim_des::{CrashFault, LinkFault, StragglerFault};

    fn prob(kind: TopologyKind) -> PoissonProblem {
        PoissonProblem::new(18, 18, 8, 4).with_topology(kind)
    }

    #[test]
    fn fault_free_degraded_matches_linear_reference() {
        let p = prob(TopologyKind::NvlinkAllToAll);
        let plan = FaultPlan::new();
        let out = run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
            .unwrap();
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
            let out =
                run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
                    .unwrap();
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
            let clean = run_cpu_free_degraded(
                &CgFtConfig::new(p.clone(), FaultPlan::new()),
                ExecMode::Full,
            )
            .unwrap();
            let plan =
                FaultPlan::new().with_link(LinkFault::kill(2, 3, SimTime::ZERO + sim_des::us(5.0)));
            let out =
                run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
                    .unwrap();
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
        let out = run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
            .unwrap();
        assert_eq!(out.quorum, vec![0, 1, 2]);
        assert_eq!(out.verify(&p, &plan), 0.0);
    }

    #[test]
    fn repeated_crashes_of_one_node_take_the_earliest() {
        let plan = FaultPlan::new()
            .with_crash(CrashFault {
                node: 1,
                at_iteration: 6,
            })
            .with_crash(CrashFault {
                node: 1,
                at_iteration: 3,
            });
        let p = prob(TopologyKind::NvlinkAllToAll);
        let out = run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
            .unwrap();
        assert_eq!(out.quorum, vec![0, 2, 3]);
        assert_eq!(out.verify(&p, &plan), 0.0);
        let earliest = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 3,
        });
        assert_eq!(
            degraded_reference_cg(&p, &plan),
            degraded_reference_cg(&p, &earliest)
        );
    }

    #[test]
    fn crash_plus_straggler_still_verifies() {
        let crash = FaultPlan::new().with_crash(CrashFault {
            node: 0,
            at_iteration: 3,
        });
        let plan = crash.clone().with_straggler(StragglerFault {
            node: 1,
            from: SimTime(0),
            until: SimTime(u64::MAX),
            compute_mult: 3.0,
        });
        // All-to-all links share nothing, so the slower compute can only
        // add time (on a shared fabric it may reorder contention instead).
        let p = prob(TopologyKind::NvlinkAllToAll);
        let run = |plan: &FaultPlan| {
            run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
                .unwrap()
        };
        let (slow, fast) = (run(&plan), run(&crash));
        assert_eq!(slow.quorum, vec![1, 2, 3]);
        assert_eq!(slow.verify(&p, &plan), 0.0);
        assert_eq!(slow.final_rho.to_bits(), fast.final_rho.to_bits());
        assert!(slow.total > fast.total, "{} <= {}", slow.total, fast.total);
    }

    #[test]
    fn verify_surfaces_a_nan_in_a_survivor_slab() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 3,
        });
        let p = prob(TopologyKind::NvlinkAllToAll);
        let mut out =
            run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
                .unwrap();
        assert_eq!(out.verify(&p, &plan), 0.0);
        out.x_owned[2][0] = f64::NAN;
        assert!(out.verify(&p, &plan).is_nan(), "a NaN in x must surface");
    }

    #[test]
    fn degraded_cg_is_deterministic() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 0,
            at_iteration: 2,
        });
        let run = || {
            let p = prob(TopologyKind::NvlinkRing);
            let out =
                run_cpu_free_degraded(&CgFtConfig::new(p.clone(), plan.clone()), ExecMode::Full)
                    .unwrap();
            (out.total, out.final_rho.to_bits(), out.retries)
        };
        assert_eq!(run(), run());
    }
}

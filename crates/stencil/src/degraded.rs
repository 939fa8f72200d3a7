//! Degraded-mode CPU-Free Jacobi: instead of rolling back to a checkpoint
//! (see [`crate::ft`]), the surviving quorum **keeps going** when a PE
//! crashes or a link dies — the chaos engine's graceful-degradation path.
//! It runs the fault-tolerant runner's iteration (`ft::JacobiPe`) under the
//! [`cpufree_core::Quorum`] driver; this module adds the set-up, the final
//! quorum allreduce and the oracle.
//!
//! # Model
//!
//! * A [`sim_des::CrashFault`] is a *permanent* death at the start of
//!   iteration `d` ([`FaultPlan::crash_iteration`]): the PE completed
//!   iterations `1..d` and pushed its iteration-`d-1` halos, then stops
//!   forever. Membership is plan-derived ([`gpu_sim::alive_at`] — "oracle
//!   membership"): every survivor independently computes the same death
//!   schedule from the shared fault plan, so no failure detector or
//!   agreement protocol is simulated, and runs stay bit-deterministic.
//! * Survivors **freeze the halo** a dead neighbor last committed: at the
//!   neighbor's death iteration the newest halo layer is copied into the
//!   other ping-pong generation, so every later sweep reads the
//!   iteration-`d-1` boundary values. The dead PE's slab stays at its
//!   last completed state; the global problem degrades into independent
//!   sub-problems separated by frozen internal boundaries.
//! * A **killed link** ([`sim_des::LinkFault::kill`]) between survivors
//!   needs no protocol change at all: the transport reroutes every
//!   delivery over surviving pairs (see [`gpu_sim::HealedRoutes`]), so
//!   results are bit-identical to the fault-free run — only virtual time
//!   changes. An unroutable partition surfaces as an attributed panic.
//! * After the sweep loop the quorum proves the healed collectives work:
//!   every survivor joins an [`nvshmem_sim::allreduce`] over the quorum
//!   ([`nvshmem_sim::Members::Quorum`]) of its local field sum and
//!   receives the identical total.
//!
//! The oracle for all of this is [`degraded_reference`]: a sequential
//! full-grid sweep in which a dead PE's layers simply stop updating.
//! Survivor slabs must match it **bit for bit** on every topology preset.

use crate::config::StencilConfig;
use crate::domain::Domain;
use crate::ft::{FtConfig, JacobiPe};
use crate::geometry::geometry_of;
use cpufree_core::{launch_cpu_free, run_blocking, Driver, Quorum};
use gpu_sim::{alive_at, BlockGroup, Buf, ExecMode, FaultPlan, Place};
use nvshmem_sim::{AllreduceWs, ShmemCtx};
use sim_des::lock::Mutex;
use sim_des::{SimDur, SimError, SimTime};
use std::sync::Arc;

/// Outcome of a degraded-mode run.
#[derive(Debug, Clone)]
pub struct DegradedExecuted {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// The surviving quorum (ascending PE ids) — the PEs whose results
    /// are verified and checksummed.
    pub quorum: Vec<usize>,
    /// Max abs deviation of the survivors' slabs from the sequential
    /// [`degraded_reference`] (`None` in timing-only / no-compute runs).
    /// Bit-identical degradation means exactly `0.0`.
    pub max_err: Option<f64>,
    /// Order-sensitive checksum over the survivors' final slabs.
    pub checksum: u64,
    /// The healed quorum allreduce of the survivors' local field sums,
    /// bitwise identical on every member of `quorum` — the PEs whose sums
    /// entered it (`None` in timing-only / no-compute runs).
    pub agreed: Option<f64>,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Link pairs dead by the end of the run (transfers between them were
    /// rerouted).
    pub dead_pairs: Vec<(usize, usize)>,
}

/// Run the CPU-Free stencil in degraded mode under `cfg.plan`.
///
/// Crashed PEs drop out permanently; survivors complete all iterations
/// with frozen halos at the death boundaries and verify against
/// [`degraded_reference`]. Killed links are rerouted transparently.
pub fn run_cpu_free_degraded(cfg: &FtConfig) -> Result<DegradedExecuted, SimError> {
    let dom = Arc::new(Domain::new(&cfg.base));
    dom.machine.set_fault_plan(cfg.plan.clone());
    let n = cfg.base.n_gpus;
    let iters = cfg.base.iterations;
    let quorum = alive_at(&cfg.plan, n, iters);
    let ws = AllreduceWs::new_ring(&dom.world);
    let driver = Quorum::new(&dom.world);
    let agreed: Arc<Mutex<Vec<Option<f64>>>> = Arc::new(Mutex::new(vec![None; n]));

    let dom_l = Arc::clone(&dom);
    let driver_l = driver.clone();
    let agreed_l = Arc::clone(&agreed);
    let end = launch_cpu_free(&dom.machine.clone(), "cpufree_degraded", move |pe| {
        let dom = Arc::clone(&dom_l);
        let mut driver = driver_l.clone();
        let mut ws = ws.clone();
        let agreed = Arc::clone(&agreed_l);
        vec![BlockGroup::new("degraded", 1, move |k| {
            let mut sh = ShmemCtx::new(&dom.world, k);
            let mut w = JacobiPe::new(&dom, pe, "degraded.sweep");
            // Survivors prove the healed collective: quorum allreduce of
            // the local field sum, bitwise identical everywhere.
            if run_blocking(&mut driver, k, &mut sh, pe, iters, &mut w) {
                let value = local_field_sum(&dom, pe);
                let sum = driver.allreduce(&mut sh, k, &mut ws, value, iters);
                agreed.lock()[pe] = sum.ok();
            }
        })]
    })?;

    let total = end.since(SimTime::ZERO);
    let functional = cfg.base.exec == ExecMode::Full && !cfg.base.no_compute;
    let max_err = functional.then(|| verify_degraded(&dom, &cfg.plan, &quorum));
    let mut checksum = 0u64;
    for &pe in &quorum {
        checksum = checksum
            .wrapping_mul(1_000_003)
            .wrapping_add(dom.final_gen().local(pe).checksum());
    }
    let agreed_all = agreed.lock();
    let agreed_result = quorum.first().and_then(|&pe| agreed_all[pe]);
    // Every member must have received the *bitwise* identical reduction
    // (compared through the bit pattern — exactness, not ≈).
    let bits = |r: &Option<f64>| r.map(f64::to_bits);
    for &pe in &quorum {
        assert_eq!(
            bits(&agreed_all[pe]),
            bits(&agreed_result),
            "quorum allreduce diverged on pe{pe}"
        );
    }
    Ok(DegradedExecuted {
        total,
        quorum,
        max_err,
        checksum,
        agreed: if functional { agreed_result } else { None },
        retries: driver.retries(),
        dead_pairs: dom.machine.faults().dead_pairs(end),
    })
}

/// Deterministic sum of `pe`'s owned interior (ascending element order) —
/// the value each survivor contributes to the final quorum allreduce.
fn local_field_sum(dom: &Domain, pe: usize) -> f64 {
    if dom.cfg.exec != ExecMode::Full || dom.cfg.no_compute {
        return 0.0;
    }
    dom.owned(pe).iter().fold(0.0, |acc, v| acc + v)
}

/// The sequential oracle for degraded runs: a full-grid ping-pong sweep in
/// which layers owned by a PE dead at iteration `t` (per [`alive_at`])
/// simply stop updating — frozen at their last completed generation, just
/// like the distributed frozen halos. Returns the final full grid.
pub fn degraded_reference(cfg: &StencilConfig, plan: &FaultPlan) -> Vec<f64> {
    let geo = geometry_of(cfg);
    let slab = cfg.slab();
    let n = cfg.n_gpus;
    let mut cur = geo.init();
    let len = cur.len();
    for t in 1..=cfg.iterations {
        let a = Buf::new(Place::Host, "degraded.ref.a", len);
        let b = Buf::new(Place::Host, "degraded.ref.b", len);
        a.write_slice(0, &cur);
        b.write_slice(0, &cur); // dead + boundary layers carry forward
        for pe in alive_at(plan, n, t) {
            let start = slab.start(pe);
            geo.sweep(&a, &b, (start + 1, start + slab.layers(pe)));
        }
        cur = b.to_vec();
    }
    cur
}

/// Max abs deviation of the survivors' owned slabs from
/// [`degraded_reference`] — `0.0` when degradation is bit-exact, NaN if any
/// cell differs by NaN.
fn verify_degraded(dom: &Domain, plan: &FaultPlan, quorum: &[usize]) -> f64 {
    dom.deviation(&degraded_reference(&dom.cfg, plan), quorum.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TopologyKind;
    use sim_des::{CrashFault, LinkFault, StragglerFault};

    fn base(kind: TopologyKind) -> StencilConfig {
        StencilConfig::square2d(32, 8, 4).with_topology(kind)
    }

    #[test]
    fn fault_free_degraded_matches_plain_reference() {
        let cfg = FtConfig::new(base(TopologyKind::NvlinkAllToAll), FaultPlan::new());
        let out = run_cpu_free_degraded(&cfg).unwrap();
        assert_eq!(out.quorum, vec![0, 1, 2, 3]);
        assert_eq!(out.max_err, Some(0.0));
        // With nobody dead the degraded reference IS the plain reference.
        let geo = geometry_of(&cfg.base);
        assert_eq!(
            degraded_reference(&cfg.base, &cfg.plan),
            geo.reference(cfg.base.iterations)
        );
        assert!(out.agreed.unwrap().is_finite());
    }

    #[test]
    fn single_pe_crash_survivors_match_degraded_reference_on_all_presets() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 2,
            at_iteration: 4,
        });
        let mut checksums = Vec::new();
        for kind in TopologyKind::presets() {
            let cfg = FtConfig::new(base(kind), plan.clone());
            let out = run_cpu_free_degraded(&cfg).unwrap();
            assert_eq!(out.quorum, vec![0, 1, 3], "{}", kind.name());
            assert_eq!(out.max_err, Some(0.0), "{}", kind.name());
            assert!(out.agreed.is_some(), "{}", kind.name());
            checksums.push(out.checksum);
        }
        // Survivor results are topology-invariant (bit-identical).
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{checksums:?}");
    }

    #[test]
    fn single_link_kill_is_bit_identical_to_fault_free() {
        for kind in TopologyKind::presets() {
            let clean =
                run_cpu_free_degraded(&FtConfig::new(base(kind), FaultPlan::new())).unwrap();
            // Kill the link between the two middle neighbors mid-run.
            let plan = FaultPlan::new().with_link(LinkFault::kill(
                1,
                2,
                SimTime::ZERO + sim_des::us(10.0),
            ));
            let out = run_cpu_free_degraded(&FtConfig::new(base(kind), plan)).unwrap();
            assert_eq!(out.quorum, vec![0, 1, 2, 3], "{}", kind.name());
            assert_eq!(out.max_err, Some(0.0), "{}", kind.name());
            assert_eq!(out.checksum, clean.checksum, "{}", kind.name());
            assert_eq!(out.dead_pairs, vec![(1, 2)], "{}", kind.name());
            // Rerouting costs time, never correctness.
            assert!(out.total >= clean.total, "{}", kind.name());
        }
    }

    #[test]
    fn crash_plus_straggler_still_verifies() {
        let plan = FaultPlan::new()
            .with_crash(CrashFault {
                node: 0,
                at_iteration: 3,
            })
            .with_straggler(StragglerFault {
                node: 1,
                from: SimTime(0),
                until: SimTime(u64::MAX),
                compute_mult: 3.0,
            });
        let cfg = FtConfig::new(base(TopologyKind::PcieTree), plan);
        let out = run_cpu_free_degraded(&cfg).unwrap();
        assert_eq!(out.quorum, vec![1, 2, 3]);
        assert_eq!(out.max_err, Some(0.0));
    }

    #[test]
    fn degraded_run_is_deterministic() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 2,
        });
        let run = || {
            let cfg = FtConfig::new(base(TopologyKind::NvlinkRing), plan.clone());
            let out = run_cpu_free_degraded(&cfg).unwrap();
            (out.total, out.checksum, out.agreed.map(f64::to_bits))
        };
        assert_eq!(run(), run());
    }
}

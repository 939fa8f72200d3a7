//! Differential testing: the CPU-Free execution model must compute the
//! *bit-identical* field as every CPU-controlled baseline, on every
//! interconnect topology preset, under perturbed schedules. The protocols
//! may only change when data moves — never what arrives.
//!
//! Each (topology, seed) cell is a self-contained bundle of simulations,
//! so the cells fan out on the [`sim_des::par_map`] pool; assertions run
//! serially afterwards in deterministic cell order.

use cpufree_solvers::{run_baseline, run_cpu_free, run_cpu_free_ft, CgFtConfig, PoissonProblem};
use gpu_sim::{ExecMode, FaultPlan, TopologyKind};
use stencil_lab::{run_cpu_free_degraded, FtConfig, StencilConfig, Variant};

const SEEDS: [Option<u64>; 4] = [None, Some(3), Some(11), Some(0xFEED)];

const BASELINES: [Variant; 4] = [
    Variant::BaselineCopy,
    Variant::BaselineOverlap,
    Variant::BaselineP2P,
    Variant::BaselineNvshmem,
];

fn cells() -> Vec<(TopologyKind, Option<u64>)> {
    TopologyKind::presets()
        .into_iter()
        .flat_map(|t| SEEDS.into_iter().map(move |s| (t, s)))
        .collect()
}

/// What one stencil cell produced: the CPU-Free result plus every
/// baseline's, in [`BASELINES`] order, and the fault-free fault-tolerant
/// and degraded runners' checksums.
struct StencilCell {
    free_checksum: u64,
    free_max_err: Option<f64>,
    baselines: Vec<(u64, Option<f64>)>,
    ft_checksum: u64,
    degraded_checksum: u64,
}

#[test]
fn cpu_free_matches_every_baseline_on_every_topology() {
    let cases = cells();
    let results = sim_des::par_map(
        sim_des::default_jobs(),
        cases.clone(),
        |(topology, seed)| {
            let mut cfg = StencilConfig::square2d(34, 6, 4).with_topology(topology);
            if let Some(s) = seed {
                cfg = cfg.with_jitter(s);
            }
            let free = Variant::CpuFree.run(&cfg);
            let baselines = BASELINES
                .iter()
                .map(|b| {
                    let out = b.run(&cfg);
                    (out.checksum, out.max_err)
                })
                .collect();
            let clean = FtConfig::new(cfg, FaultPlan::new());
            let ft = stencil_lab::run_cpu_free_ft(&clean).unwrap();
            let degraded = run_cpu_free_degraded(&clean).unwrap();
            StencilCell {
                free_checksum: free.checksum,
                free_max_err: free.max_err,
                baselines,
                ft_checksum: ft.exec.checksum,
                degraded_checksum: degraded.checksum,
            }
        },
    );
    // One global reference: the numerics are also invariant across
    // topologies and schedules.
    let reference = results[0].free_checksum;
    for (&(topology, seed), cell) in cases.iter().zip(&results) {
        assert_eq!(
            cell.free_max_err,
            Some(0.0),
            "CpuFree wrong on {} seed {seed:?}",
            topology.name()
        );
        assert_eq!(
            cell.free_checksum,
            reference,
            "CpuFree checksum drifted on {} seed {seed:?}",
            topology.name()
        );
        // The one-group fault runners sweep the same field as the
        // three-group CPU-Free kernel.
        assert_eq!(
            (cell.ft_checksum, cell.degraded_checksum),
            (cell.free_checksum, cell.free_checksum),
            "fault-free FT / degraded Jacobi differ from CpuFree on {} seed {seed:?}",
            topology.name()
        );
        for (baseline, &(checksum, max_err)) in BASELINES.iter().zip(&cell.baselines) {
            assert_eq!(
                max_err,
                Some(0.0),
                "{} wrong on {} seed {seed:?}",
                baseline.label(),
                topology.name()
            );
            assert_eq!(
                checksum,
                cell.free_checksum,
                "{} differs from CpuFree on {} seed {seed:?}",
                baseline.label(),
                topology.name()
            );
        }
    }
}

/// The CG solver differential: CPU-Free (device-side recursive-doubling
/// allreduce) and the CPU-controlled baseline (host-staged linear combine)
/// intentionally use different reduction orders, so each is compared
/// bitwise against its own order-matched sequential reference instead of
/// against each other. The fault-free fault-tolerant run shares the
/// CPU-Free schedule and must match it bit for bit.
#[test]
fn cg_variants_match_order_matched_reference_everywhere() {
    let cases = cells();
    let results = sim_des::par_map(
        sim_des::default_jobs(),
        cases.clone(),
        |(topology, seed)| {
            let mut prob = PoissonProblem::new(18, 20, 6, 4).with_topology(topology);
            if let Some(s) = seed {
                prob = prob.with_jitter(s);
            }
            let free = run_cpu_free(&prob, ExecMode::Full);
            let base = run_baseline(&prob, ExecMode::Full);
            let ft = run_cpu_free_ft(
                &CgFtConfig::new(prob.clone(), FaultPlan::new()),
                ExecMode::Full,
            )
            .unwrap()
            .result;
            let bits =
                |x: &[Vec<f64>]| -> Vec<u64> { x.iter().flatten().map(|v| v.to_bits()).collect() };
            let ft_identical = ft.final_rho.to_bits() == free.final_rho.to_bits()
                && bits(&ft.x_owned) == bits(&free.x_owned);
            (free.verify(&prob), base.verify(&prob), ft_identical)
        },
    );
    for (&(topology, seed), &(free_err, base_err, ft_identical)) in cases.iter().zip(&results) {
        assert_eq!(
            free_err,
            0.0,
            "CPU-Free CG wrong on {} seed {seed:?}",
            topology.name()
        );
        assert_eq!(
            base_err,
            0.0,
            "baseline CG wrong on {} seed {seed:?}",
            topology.name()
        );
        assert!(
            ft_identical,
            "fault-free FT CG differs from CPU-Free CG on {} seed {seed:?}",
            topology.name()
        );
    }
}

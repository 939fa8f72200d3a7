//! Satellite property test for the chaos engine: every seeded fault plan
//! either completes bit-identically to the fault-free baseline (or with a
//! documented degraded quorum) or yields an *attributed* timeout /
//! diagnostic — never a silent divergence, an unattributed hang, or an
//! unbounded recovery.

use cpufree_bench::chaos::{
    baseline, chaos_sweep_jobs, degraded_plans, run_degraded_schedule, run_schedule, ChaosWorkload,
    CHAOS_HORIZON_US, CHAOS_ITERS, CHAOS_NODES,
};
use gpu_sim::TopologyKind;
use sim_des::{us, ChaosOutcome, FaultPlan, SimTime};

/// 64 seeds x 2 topologies on the fault-tolerant Jacobi runner: no fault
/// plan drawn from the generator may ever produce a violation outcome.
/// Every run either matches the baseline bit-for-bit or names its fault.
#[test]
fn seeded_fault_plans_never_diverge_silently() {
    let topologies = [TopologyKind::NvlinkAllToAll, TopologyKind::PcieTree];
    for topo in topologies {
        let base = baseline(ChaosWorkload::Jacobi, topo);
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(
                seed,
                CHAOS_NODES,
                SimTime::ZERO + us(CHAOS_HORIZON_US),
                CHAOS_ITERS,
            );
            let outcome = run_schedule(ChaosWorkload::Jacobi, topo, &plan, &base);
            assert!(
                !outcome.is_violation(),
                "seed {seed} on {} violated a recovery invariant: {}",
                topo.name(),
                outcome.label(),
            );
            match &outcome {
                ChaosOutcome::CompletedIdentical
                | ChaosOutcome::CompletedDegraded { .. }
                | ChaosOutcome::AttributedTimeout { .. }
                | ChaosOutcome::AttributedDiagnostic { .. } => {}
                other => panic!(
                    "seed {seed} on {}: unexpected outcome {}",
                    topo.name(),
                    other.label()
                ),
            }
        }
    }
}

/// Degraded modes hold on every preset: Jacobi and CG complete under a
/// single-PE crash (healed quorum collectives, documented membership) and
/// a single hard link kill (transport rerouting, bit-identical result) on
/// all four topology presets.
#[test]
fn degraded_modes_hold_across_all_topologies() {
    for topo in TopologyKind::presets() {
        for workload in ChaosWorkload::ALL {
            for (name, plan) in degraded_plans() {
                let outcome = run_degraded_schedule(workload, topo, &plan);
                match (&outcome, name) {
                    // Node 2 dies: the surviving quorum must be exactly the
                    // other three PEs, and the run must say so.
                    (ChaosOutcome::CompletedDegraded { quorum }, "degraded-crash") => {
                        assert_eq!(
                            quorum,
                            &[0, 1, 3],
                            "{} {name} on {}: wrong quorum",
                            workload.name(),
                            topo.name()
                        );
                    }
                    // A killed link is healed by rerouting alone — no
                    // protocol change, so the result stays bit-identical.
                    (ChaosOutcome::CompletedIdentical, "degraded-linkkill") => {}
                    (other, _) => panic!(
                        "{} {name} on {}: unexpected outcome {}",
                        workload.name(),
                        topo.name(),
                        other.label()
                    ),
                }
            }
        }
    }
}

/// The same seed budget explores the same schedules and classifies them
/// identically: two sweeps render byte-for-byte the same report.
#[test]
fn chaos_sweep_is_deterministic() {
    let jobs = sim_des::default_jobs();
    let a = chaos_sweep_jobs(3, false, jobs).expect("sweep").render();
    let b = chaos_sweep_jobs(3, false, jobs).expect("sweep").render();
    assert_eq!(a, b, "same seed budget must render identical reports");
    assert!(a.contains("schedules explored"));
}

/// Parallelism is invisible in the output: the sweep renders the same
/// bytes whether the cases ran on one worker or raced across eight.
/// (Only identity is asserted — never wall clock; CI boxes may be 1-core.)
#[test]
fn chaos_report_is_byte_identical_across_worker_counts() {
    let reference = chaos_sweep_jobs(3, false, 1).expect("sweep").render();
    for jobs in [2usize, 8] {
        let report = chaos_sweep_jobs(3, false, jobs).expect("sweep").render();
        assert_eq!(
            reference, report,
            "report diverged between 1 and {jobs} workers"
        );
    }
    assert!(reference.contains("schedules explored"));
}

/// Degenerate sweep inputs are rejected up front — a sweep that explores
/// nothing must never masquerade as a clean gate.
#[test]
fn degenerate_sweep_inputs_error_cleanly() {
    let zero_seeds = chaos_sweep_jobs(0, false, 4);
    assert!(zero_seeds.is_err(), "seeds=0 must be an error");
    assert!(zero_seeds.unwrap_err().contains("seed"));
    let zero_jobs = chaos_sweep_jobs(3, false, 0);
    assert!(zero_jobs.is_err(), "jobs=0 must be an error");
    assert!(zero_jobs.unwrap_err().contains("jobs 0"));
}

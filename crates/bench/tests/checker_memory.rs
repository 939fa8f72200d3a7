//! The happens-before checker's state is bounded by live state, not by run
//! length: a chaos Jacobi run at 40 iterations ends with exactly the shadow
//! accesses and clock slots of a 10-iteration run, while the event and
//! access counts grow with the iterations.

use cpufree_bench::chaos::jacobi_config;
use gpu_sim::{CheckReport, TopologyKind};
use sim_des::FaultPlan;
use stencil_lab::FtConfig;

fn checked_jacobi(topo: TopologyKind, iterations: u64) -> CheckReport {
    let mut cfg = jacobi_config(topo);
    cfg.iterations = iterations;
    let ex = stencil_lab::run_cpu_free_ft(&FtConfig::new(cfg, FaultPlan::new()))
        .expect("fault-free run completes");
    ex.exec.check.expect("chaos Jacobi runs checked")
}

#[test]
fn checker_state_stays_bounded_as_runs_grow() {
    for topo in TopologyKind::node_presets() {
        let short = checked_jacobi(topo, 10);
        let long = checked_jacobi(topo, 40);
        assert!(short.clean() && long.clean(), "{topo:?}: {short}{long}");
        assert_eq!(
            (long.retained_accesses, long.live_slots),
            (short.retained_accesses, short.live_slots),
            "{topo:?}: retained accesses and live clock slots"
        );
        // Every iteration records the same accesses; events also include
        // the checkpoints (one per four iterations).
        assert_eq!(long.accesses, 4 * short.accesses, "{topo:?}");
        assert!(
            3 * short.events < long.events && long.events <= 4 * short.events,
            "{topo:?}: {} events at 10 iterations, {} at 40",
            short.events,
            long.events
        );
    }
}

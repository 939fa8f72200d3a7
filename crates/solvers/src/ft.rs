//! Fault-tolerant CPU-Free CG: the persistent kernel of [`crate::cg`] (its
//! one `CgPe` iteration) run under the [`cpufree_core::Rollback`]
//! checkpoint/restart driver, with retrying puts and interruptible waits
//! and allreduces — driven by a deterministic [`FaultPlan`].
//!
//! The set-up, the iteration and the allreduce workspace are those of
//! [`crate::cg::run_cpu_free`], so fault-free results match the plain
//! variant bitwise. Every wait is deadline-sliced (the driver's
//! [`cpufree_core::FtCtx`]) so a PE joins an announced rollback instead of
//! waiting on a peer that restarted, and dropped deliveries are retried
//! with backoff.
//!
//! A checkpoint snapshots `x`, `r`, `q`, the full local `p` slab (owned
//! rows *and* halos) and the scalar `rho`. The allreduce epoch counter
//! needs no snapshot — it is a pure function of the checkpoint iteration
//! (`1 + 2·k0`: one `rho0` call plus two calls per completed iteration) —
//! so restore rewinds it and resets the local allreduce and halo flags to
//! their exact fault-free values at iteration `k0`. The replay, including
//! every reduction order, is then bit-identical to the fault-free run.

use crate::cg::{CgResult, CpuFreeCg};
use crate::problem::PoissonProblem;
use cpufree_core::Rollback;
use gpu_sim::{ExecMode, FaultPlan};
use nvshmem_sim::AllreduceWs;
use sim_des::SimError;

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
    let run = CpuFreeCg::new(prob, exec, Some(&cfg.plan), AllreduceWs::new);
    let rollback = Rollback::new(&run.world);
    let (iters, rollback_l) = (prob.iterations, rollback.clone());
    let end = run.launch("cg_ft", "cgft", move |k, sh, pe, w| {
        rollback_l.run_pe(k, sh, pe, iters, w)
    })?;
    let result = run.collect(end);
    let c = rollback.counts();
    Ok(CgFtResult {
        result,
        rollbacks: c.rollbacks,
        retries: c.retries,
        checkpoints: c.checkpoints,
    })
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

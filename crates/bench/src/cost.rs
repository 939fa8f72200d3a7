//! Static cost-predictor validation sweep and the `BENCH_cost.json`
//! ledger behind `figures -- cost`.
//!
//! Every cell of (corpus program × persistent stage × GPU count × topology
//! preset) is both **predicted** ([`dace_sim::predict_cost`]) and
//! **simulated** ([`dace_sim::lower::run_persistent_on`], timing-only), and
//! the sweep asserts the predictor's contract:
//!
//! * on uncontended fabrics (`!report.contended`) the prediction equals
//!   the simulated virtual time **exactly**;
//! * on contended fabrics it never underestimates and stays within the
//!   documented 10% bound.
//!
//! Both sides are pure virtual time, so the whole row set is deterministic
//! and CI diffs the emitted `BENCH_cost.json` byte for byte.

use dace_sim::cost::CostReport;
use dace_sim::predict_cost;
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{
    gpu_persistent_kernel, gpu_transform, mpi_to_nvshmem_with, nvshmem_array, to_cpu_free,
    PutGranularity,
};
use dace_sim::{Bindings, Sdfg};
use gpu_sim::{ExecMode, TopologyKind};
use sim_des::SimDur;

use crate::GPU_COUNTS;

/// One validated sweep cell: prediction vs simulation for a (program,
/// stage, GPU count, fabric) combination.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Corpus program (`jacobi1d` / `jacobi2d`).
    pub program: &'static str,
    /// Pipeline stage (`cpu_free` single-thread puts, `cpu_free_block`
    /// block-cooperative puts).
    pub stage: &'static str,
    /// GPU count.
    pub gpus: usize,
    /// Topology preset name.
    pub fabric: String,
    /// Predicted total (`base + margin`).
    pub predicted: SimDur,
    /// Contention-ordered recurrence value (exact when `!contended`).
    pub base: SimDur,
    /// Conservative shared-link surcharge.
    pub margin: SimDur,
    /// DES ground truth (timing-only persistent run).
    pub simulated: SimDur,
    /// `(predicted - simulated) / simulated`.
    pub rel_err: f64,
    /// Any link shared between two ordered PE pairs?
    pub contended: bool,
    /// Steady-state shortcut taken?
    pub extrapolated: bool,
}

impl CostRow {
    /// The predictor's contract for this cell; `None` when it holds.
    pub fn violation(&self) -> Option<String> {
        let id = format!(
            "{}/{} @{}gpus on {}",
            self.program, self.stage, self.gpus, self.fabric
        );
        if !self.contended && self.predicted != self.simulated {
            return Some(format!(
                "{id}: expected exact on uncontended fabric, predicted {} vs simulated {}",
                self.predicted, self.simulated
            ));
        }
        if self.predicted < self.simulated {
            return Some(format!(
                "{id}: prediction under-estimates ({} < {})",
                self.predicted, self.simulated
            ));
        }
        if self.rel_err > 0.10 {
            return Some(format!(
                "{id}: relative error {:.4} exceeds the 10% bound",
                self.rel_err
            ));
        }
        None
    }
}

/// The sweep result: rows in deterministic emission order plus, per
/// fabric, the ledger of the heaviest configuration (largest GPU count of
/// `jacobi2d/cpu_free`) for the top-kernel report.
pub struct CostSweep {
    /// All validated cells.
    pub rows: Vec<CostRow>,
    /// `(fabric, report)` per preset for the top-kernels table.
    pub ledgers: Vec<(String, CostReport)>,
}

impl CostSweep {
    /// Every contract violation across the sweep (empty on success).
    pub fn violations(&self) -> Vec<String> {
        self.rows.iter().filter_map(CostRow::violation).collect()
    }
}

/// Corpus cell descriptors: mirrors `verify_corpus_jobs`'s sizes; the 1D
/// program runs long enough (50 steps) to exercise the steady-state
/// extrapolation path, the 2D program short enough (5 steps) to exercise
/// the full walk.
fn programs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("jacobi1d", "cpu_free"),
        ("jacobi1d", "cpu_free_block"),
        ("jacobi2d", "cpu_free"),
        ("jacobi2d", "cpu_free_block"),
    ]
}

fn build(program: &str, stage: &str, gpus: usize) -> (Sdfg, Bindings, u64) {
    let (frontend, user, tsteps): (Sdfg, Bindings, u64) = match program {
        "jacobi1d" => {
            let s = Jacobi1dSetup::new(64, 50, gpus);
            (s.sdfg.clone(), s.user_bindings(), 50)
        }
        _ => {
            let s = Jacobi2dSetup::new(8, 8, 5, gpus);
            (s.sdfg.clone(), s.user_bindings(), 5)
        }
    };
    let mut sdfg = frontend;
    match stage {
        "cpu_free" => to_cpu_free(&mut sdfg).expect("to_cpu_free"),
        _ => {
            gpu_transform(&mut sdfg);
            mpi_to_nvshmem_with(&mut sdfg, PutGranularity::Block).expect("mpi_to_nvshmem");
            nvshmem_array(&mut sdfg);
            gpu_persistent_kernel(&mut sdfg).expect("gpu_persistent_kernel");
        }
    }
    (sdfg, user, tsteps)
}

/// Run the full prediction-vs-simulation sweep on `jobs` workers. Row
/// order is independent of the worker count (cells are mapped in
/// deterministic order), so the emitted JSON is byte-stable.
pub fn cost_sweep_jobs(jobs: usize) -> CostSweep {
    let presets = TopologyKind::presets();
    let mut cells: Vec<(&'static str, &'static str, usize, TopologyKind)> = Vec::new();
    for (program, stage) in programs() {
        for &gpus in &GPU_COUNTS {
            for &kind in &presets {
                cells.push((program, stage, gpus, kind));
            }
        }
    }
    let rows = sim_des::par_map(jobs, cells, |(program, stage, gpus, kind)| {
        let (sdfg, user, tsteps) = build(program, stage, gpus);
        let report = predict_cost(&sdfg, gpus, &user, kind).expect("predict_cost");
        let simulated = dace_sim::lower::run_persistent_on(
            &sdfg,
            gpus,
            &user,
            tsteps,
            kind,
            ExecMode::TimingOnly,
            &|_, _| vec![],
        )
        .expect("persistent run")
        .total;
        CostRow {
            program,
            stage,
            gpus,
            fabric: kind.name(),
            predicted: report.total,
            base: report.base,
            margin: report.margin,
            simulated,
            rel_err: report.rel_err(simulated),
            contended: report.contended,
            extrapolated: report.extrapolated,
        }
    });
    // Top-kernel ledgers: the heaviest corpus configuration per fabric.
    let top_gpus = *GPU_COUNTS.last().expect("non-empty GPU_COUNTS");
    let ledgers = sim_des::par_map(jobs, presets, |kind| {
        let (sdfg, user, _) = build("jacobi2d", "cpu_free", top_gpus);
        let report = predict_cost(&sdfg, top_gpus, &user, kind).expect("predict_cost");
        (kind.name(), report)
    });
    CostSweep { rows, ledgers }
}

//! The model problem: a 2D Poisson equation `A x = b` with the 5-point
//! Laplacian on a Dirichlet grid, slab-decomposed across PEs — and its
//! sequential reference CG with configurable reduction order (so both the
//! linear host-side and the recursive-doubling device-side allreduce can be
//! verified bitwise).

use crate::kernels::{axpy_xr_rows, dot_rows, matvec_rows, update_p_rows};
use gpu_sim::{CostModel, ExecMode, Machine, TopologyKind};
use nvshmem_sim::{reference_reduce, ReduceOp};
use stencil_lab::Slab;

/// The distributed CG experiment configuration.
#[derive(Debug, Clone)]
pub struct PoissonProblem {
    /// Grid columns, including the two fixed boundary columns.
    pub nx: usize,
    /// Grid rows, including the two fixed boundary rows.
    pub ny: usize,
    /// CG iterations to run (fixed count — deterministic workload).
    pub iterations: u64,
    /// Number of PEs (slab decomposition along rows).
    pub n_pes: usize,
    /// Interconnect topology the machine is built with.
    pub topology: TopologyKind,
    /// Seed for deterministic wake-order jitter (schedule perturbation);
    /// `None` = the engine's canonical order.
    pub jitter: Option<u64>,
    /// Enable the happens-before race detector / conformance checker.
    pub check: bool,
}

/// How partial dot-products are combined across PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOrder {
    /// Linear, by ascending rank (the host-side baseline path).
    Linear,
    /// Recursive doubling (the device-side collective path).
    Doubling,
}

impl PoissonProblem {
    /// Construct and validate.
    pub fn new(nx: usize, ny: usize, iterations: u64, n_pes: usize) -> PoissonProblem {
        assert!(nx >= 3 && ny >= 3 && n_pes >= 1);
        assert!(ny - 2 >= n_pes, "each PE needs at least one interior row");
        PoissonProblem {
            nx,
            ny,
            iterations,
            n_pes,
            topology: TopologyKind::NvlinkAllToAll,
            jitter: None,
            check: false,
        }
    }

    /// Builder-style: run on a different interconnect topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> PoissonProblem {
        self.topology = topology;
        self
    }

    /// Builder-style: perturb the wake order of simultaneously-woken agents
    /// with a deterministic seed (schedule-robustness testing).
    pub fn with_jitter(mut self, seed: u64) -> PoissonProblem {
        self.jitter = Some(seed);
        self
    }

    /// Builder-style: enable the happens-before / conformance checker.
    pub fn with_check(mut self) -> PoissonProblem {
        self.check = true;
        self
    }

    /// The machine every CG runner builds: the problem's topology on the
    /// A100-HGX cost model, with the checker and wake-order jitter enabled
    /// when the problem asks for them.
    pub(crate) fn machine(&self, exec: ExecMode) -> Machine {
        let machine =
            Machine::with_topology(self.n_pes, CostModel::a100_hgx(), self.topology, exec);
        if self.check {
            machine.enable_checker();
        }
        if let Some(seed) = self.jitter {
            machine.set_wake_jitter(seed);
        }
        machine
    }

    /// The slab decomposition of the interior rows.
    pub fn slab(&self) -> Slab {
        Slab::new(self.ny - 2, self.n_pes)
    }

    /// The source term at global cell `(gi, gj)` (zero on the boundary).
    pub fn b_value(&self, gi: usize, gj: usize) -> f64 {
        if gi == 0 || gi == self.ny - 1 || gj == 0 || gj == self.nx - 1 {
            0.0
        } else {
            (((gi * 13 + gj * 7) % 23) as f64 - 11.0) / 23.0
        }
    }

    /// The local b field of `pe` as a (layers+2) x nx slab with halo rows.
    pub fn local_b(&self, pe: usize) -> Vec<f64> {
        let slab = self.slab();
        let (start, layers) = (slab.start(pe), slab.layers(pe));
        let mut v = vec![0.0; (layers + 2) * self.nx];
        for l in 0..layers + 2 {
            for j in 0..self.nx {
                v[l * self.nx + j] = self.b_value(start + l, j);
            }
        }
        v
    }

    /// Combine per-PE dot partials in the given order.
    pub fn combine(&self, partials: &[f64], order: ReduceOrder) -> f64 {
        match order {
            ReduceOrder::Linear => reference_reduce(partials, ReduceOp::Sum, false),
            ReduceOrder::Doubling => {
                reference_reduce(partials, ReduceOp::Sum, self.n_pes.is_power_of_two())
            }
        }
    }

    /// Sequential reference CG that mimics the distributed arithmetic
    /// exactly: per-slab partial dots combined in `order`. Returns the full
    /// x grid and the final residual norm squared.
    pub fn reference_cg(&self, order: ReduceOrder) -> (Vec<f64>, f64) {
        let (nx, ny) = (self.nx, self.ny);
        let slab = self.slab();
        let interior = (1, ny - 2);
        let mut b = vec![0.0; nx * ny];
        for i in 0..ny {
            for j in 0..nx {
                b[i * nx + j] = self.b_value(i, j);
            }
        }
        let mut x = vec![0.0; nx * ny];
        let mut r = b;
        let mut p = r.clone();
        let mut q = vec![0.0; nx * ny];

        // Per-slab dot over each PE's owned rows: the device kernel's fold.
        let dot = |a: &[f64], c: &[f64]| -> f64 {
            let partials: Vec<f64> = (0..self.n_pes)
                .map(|pe| {
                    let start = slab.start(pe);
                    dot_rows(a, c, nx, (start + 1, start + slab.layers(pe)))
                })
                .collect();
            self.combine(&partials, order)
        };

        let mut rho = dot(&r, &r);
        for _ in 0..self.iterations {
            matvec_rows(&p, &mut q, nx, interior);
            let alpha = rho / dot(&p, &q);
            axpy_xr_rows(&mut x, &mut r, &p, &q, alpha, nx, interior);
            let rho_new = dot(&r, &r);
            let beta = rho_new / rho;
            rho = rho_new;
            update_p_rows(&mut p, &r, beta, nx, interior);
        }
        (x, rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_is_zero_on_boundary() {
        let p = PoissonProblem::new(10, 12, 1, 2);
        for j in 0..10 {
            assert_eq!(p.b_value(0, j), 0.0);
            assert_eq!(p.b_value(11, j), 0.0);
        }
        for i in 0..12 {
            assert_eq!(p.b_value(i, 0), 0.0);
            assert_eq!(p.b_value(i, 9), 0.0);
        }
        assert_ne!(p.b_value(3, 4), 0.0);
    }

    #[test]
    fn local_b_matches_global() {
        let p = PoissonProblem::new(8, 14, 1, 3);
        let slab = p.slab();
        for pe in 0..3 {
            let local = p.local_b(pe);
            let start = slab.start(pe);
            for l in 0..slab.layers(pe) + 2 {
                for j in 0..8 {
                    assert_eq!(local[l * 8 + j], p.b_value(start + l, j));
                }
            }
        }
    }

    #[test]
    fn reference_cg_reduces_residual() {
        let p = PoissonProblem::new(18, 18, 25, 4);
        let (_, rho_25) = p.reference_cg(ReduceOrder::Doubling);
        let p0 = PoissonProblem::new(18, 18, 1, 4);
        let (_, rho_1) = p0.reference_cg(ReduceOrder::Doubling);
        assert!(
            rho_25 < rho_1 * 1e-3,
            "CG failed to converge: {rho_25} vs {rho_1}"
        );
    }

    #[test]
    fn reference_orders_agree_approximately() {
        let p = PoissonProblem::new(16, 16, 10, 4);
        let (xa, ra) = p.reference_cg(ReduceOrder::Linear);
        let (xb, rb) = p.reference_cg(ReduceOrder::Doubling);
        let diff = stencil_lab::grid::max_abs_diff(&xa, &xb);
        assert!(diff < 1e-9, "order changed the answer too much: {diff}");
        assert!((ra - rb).abs() < 1e-12);
    }

    #[test]
    fn solution_solves_system_approximately() {
        // After enough iterations the explicit residual b - A x is small.
        let p = PoissonProblem::new(14, 14, 60, 2);
        let (x, _) = p.reference_cg(ReduceOrder::Linear);
        let nx = 14;
        let mut worst = 0.0f64;
        for i in 1..13 {
            for j in 1..13 {
                let ax = 4.0 * x[i * nx + j]
                    - x[(i - 1) * nx + j]
                    - x[(i + 1) * nx + j]
                    - x[i * nx + j - 1]
                    - x[i * nx + j + 1];
                worst = stencil_lab::grid::max_dev(worst, (p.b_value(i, j) - ax).abs());
            }
        }
        assert!(worst < 1e-8, "residual {worst}");
    }
}

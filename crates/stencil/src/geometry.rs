//! Geometry abstraction: everything that differs between the 2D5pt and
//! 3D7pt Jacobi stencils, behind one trait so the variant implementations
//! (baselines, CPU-Free, PERKS) are written once.
//!
//! A "layer" is the unit of slab decomposition and halo exchange: a row in
//! 2D, a plane in 3D.

use crate::config::{StencilConfig, Workload};
use crate::grid;
use gpu_sim::Buf;

/// The dimensional specifics of a stencil problem.
pub trait Geometry: Send + Sync {
    /// Elements in one layer (row / plane).
    fn layer_elems(&self) -> usize;
    /// Number of layers along the decomposed axis, including both boundary
    /// layers.
    fn axis(&self) -> usize;
    /// Global layers `first..` of the initial condition, written over all
    /// of `out` (a whole number of layers).
    fn init_layers(&self, first: usize, out: &mut [f64]);
    /// The full global initial condition.
    fn init(&self) -> Vec<f64> {
        let mut g = vec![0.0; self.axis() * self.layer_elems()];
        self.init_layers(0, &mut g);
        g
    }
    /// The sequential reference field after `iterations` steps.
    fn reference(&self, iterations: u64) -> Vec<f64>;
    /// Apply one Jacobi update to local layers `range.0..=range.1` of a
    /// slab-local grid (layer 0 is the low halo).
    fn sweep(&self, a: &Buf, b: &Buf, range: (usize, usize));
    /// Per-PE workload arithmetic for `layers` owned layers.
    fn workload(&self, layers: usize, no_compute: bool) -> Workload;
    /// Short name for traces ("2d5pt" / "3d7pt").
    fn name(&self) -> &'static str;
}

/// 2D5pt Jacobi over an `nx × ny` grid, decomposed along Y.
#[derive(Debug, Clone, Copy)]
pub struct Geo2D {
    /// Columns (fastest axis).
    pub nx: usize,
    /// Rows (decomposed axis).
    pub ny: usize,
}

impl Geometry for Geo2D {
    fn layer_elems(&self) -> usize {
        self.nx
    }

    fn axis(&self) -> usize {
        self.ny
    }

    fn init_layers(&self, first: usize, out: &mut [f64]) {
        grid::init2d_rows(self.nx, first, out);
    }

    fn reference(&self, iterations: u64) -> Vec<f64> {
        grid::reference2d(self.nx, self.ny, iterations)
    }

    fn sweep(&self, a: &Buf, b: &Buf, range: (usize, usize)) {
        grid::sweep2d_buf(a, b, self.nx, range);
    }

    fn workload(&self, layers: usize, no_compute: bool) -> Workload {
        Workload::jacobi2d(self.nx, layers, no_compute)
    }

    fn name(&self) -> &'static str {
        "2d5pt"
    }
}

/// 3D7pt Jacobi over an `nx × ny × nz` grid, decomposed along Z.
#[derive(Debug, Clone, Copy)]
pub struct Geo3D {
    /// X extent (fastest axis).
    pub nx: usize,
    /// Y extent.
    pub ny: usize,
    /// Z extent (decomposed axis).
    pub nz: usize,
}

impl Geometry for Geo3D {
    fn layer_elems(&self) -> usize {
        self.nx * self.ny
    }

    fn axis(&self) -> usize {
        self.nz
    }

    fn init_layers(&self, first: usize, out: &mut [f64]) {
        grid::init3d_planes(self.nx, self.ny, first, out);
    }

    fn reference(&self, iterations: u64) -> Vec<f64> {
        grid::reference3d(self.nx, self.ny, self.nz, iterations)
    }

    fn sweep(&self, a: &Buf, b: &Buf, range: (usize, usize)) {
        grid::sweep3d_buf(a, b, self.nx, self.ny, range);
    }

    fn workload(&self, layers: usize, no_compute: bool) -> Workload {
        Workload::jacobi3d(self.nx, self.ny, layers, no_compute)
    }

    fn name(&self) -> &'static str {
        "3d7pt"
    }
}

/// Select the geometry described by a configuration.
pub fn geometry_of(cfg: &StencilConfig) -> std::sync::Arc<dyn Geometry> {
    if cfg.is_3d() {
        std::sync::Arc::new(Geo3D {
            nx: cfg.nx,
            ny: cfg.ny,
            nz: cfg.nz,
        })
    } else {
        std::sync::Arc::new(Geo2D {
            nx: cfg.nx,
            ny: cfg.ny,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Place;

    #[test]
    fn geo2d_properties() {
        let g = Geo2D { nx: 16, ny: 32 };
        assert_eq!(g.layer_elems(), 16);
        assert_eq!(g.axis(), 32);
        assert_eq!(g.init().len(), 512);
        assert_eq!(g.name(), "2d5pt");
    }

    #[test]
    fn geo3d_properties() {
        let g = Geo3D {
            nx: 8,
            ny: 8,
            nz: 16,
        };
        assert_eq!(g.layer_elems(), 64);
        assert_eq!(g.axis(), 16);
        assert_eq!(g.init().len(), 1024);
        assert_eq!(g.name(), "3d7pt");
    }

    #[test]
    fn geometry_of_dispatches_on_nz() {
        let cfg2 = StencilConfig::square2d(16, 1, 2);
        assert_eq!(geometry_of(&cfg2).name(), "2d5pt");
        let cfg3 = StencilConfig::cube3d(8, 8, 16, 1, 2);
        assert_eq!(geometry_of(&cfg3).name(), "3d7pt");
    }

    #[test]
    fn sweep_via_trait_matches_direct() {
        let g = Geo2D { nx: 8, ny: 8 };
        let init = g.init();
        let a = Buf::new(Place::Host, "a", 64);
        let b = Buf::new(Place::Host, "b", 64);
        a.write_slice(0, &init);
        b.write_slice(0, &init);
        g.sweep(&a, &b, (1, 6));
        let mut direct = init.clone();
        grid::sweep2d_rows(&init, &mut direct, 8, (1, 6));
        assert_eq!(b.to_vec(), direct);
    }

    #[test]
    fn init_layers_equal_the_slices_of_init_bit_for_bit() {
        let geos: [&dyn Geometry; 2] = [
            &Geo2D { nx: 5, ny: 7 },
            &Geo3D {
                nx: 4,
                ny: 3,
                nz: 6,
            },
        ];
        for g in geos {
            let (le, axis) = (g.layer_elems(), g.axis());
            let init = g.init();
            for first in 0..axis {
                for layers in 1..=axis - first {
                    // Start from a dirty buffer: every cell must be written.
                    let mut out = vec![f64::NAN; layers * le];
                    g.init_layers(first, &mut out);
                    let want = &init[first * le..(first + layers) * le];
                    assert!(
                        out.iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}: layers {first}..{}",
                        g.name(),
                        first + layers
                    );
                }
            }
        }
    }
}

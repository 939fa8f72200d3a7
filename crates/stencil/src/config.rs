//! Experiment configuration, slab decomposition, and per-variant workload
//! arithmetic (points, bytes, flops, fractions).

use gpu_sim::{CostModel, ExecMode, TopologyKind};
use sim_des::SimDur;

/// Configuration of one stencil experiment.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// Global X extent (columns), including the fixed boundary.
    pub nx: usize,
    /// Global Y extent (rows), including the fixed boundary.
    pub ny: usize,
    /// Global Z extent for 3D runs (planes), including the boundary.
    /// `1` selects the 2D5pt kernel.
    pub nz: usize,
    /// Time steps.
    pub iterations: u64,
    /// Number of GPUs (slab partitions along the last axis).
    pub n_gpus: usize,
    /// Functional or timing-only kernels.
    pub exec: ExecMode,
    /// Zero out compute costs/work: the paper's "no compute" experiments
    /// (Fig 2.2a, Fig 6.2 middle) isolating communication + synchronization.
    pub no_compute: bool,
    /// Cost model override (`None` = A100 HGX defaults).
    pub cost: Option<CostModel>,
    /// Interconnect topology override (`None` = the cost model's own).
    pub topology: Option<TopologyKind>,
    /// Seed for deterministic wake-order jitter (schedule perturbation);
    /// `None` = the engine's canonical order.
    pub jitter: Option<u64>,
    /// Enable the happens-before race detector / conformance checker.
    pub check: bool,
}

impl StencilConfig {
    /// A 2D5pt configuration over an `n × n` grid.
    pub fn square2d(n: usize, iterations: u64, n_gpus: usize) -> StencilConfig {
        StencilConfig {
            nx: n,
            ny: n,
            nz: 1,
            iterations,
            n_gpus,
            exec: ExecMode::Full,
            no_compute: false,
            cost: None,
            topology: None,
            jitter: None,
            check: false,
        }
    }

    /// A 3D7pt configuration over an `nx × ny × nz` grid.
    pub fn cube3d(
        nx: usize,
        ny: usize,
        nz: usize,
        iterations: u64,
        n_gpus: usize,
    ) -> StencilConfig {
        StencilConfig {
            nx,
            ny,
            nz,
            iterations,
            n_gpus,
            exec: ExecMode::Full,
            no_compute: false,
            cost: None,
            topology: None,
            jitter: None,
            check: false,
        }
    }

    /// Builder-style: timing-only execution (large sweeps).
    pub fn timing_only(mut self) -> Self {
        self.exec = ExecMode::TimingOnly;
        self
    }

    /// Builder-style: disable compute (pure communication experiments).
    pub fn without_compute(mut self) -> Self {
        self.no_compute = true;
        self.exec = ExecMode::TimingOnly;
        self
    }

    /// Builder-style: override the cost model (e.g. `CostModel::pcie_only()`).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Builder-style: run on a different interconnect topology
    /// (e.g. `TopologyKind::NvlinkRing`).
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Builder-style: perturb the wake order of simultaneously-woken agents
    /// with a deterministic seed (schedule-robustness testing).
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter = Some(seed);
        self
    }

    /// Builder-style: enable the happens-before / conformance checker.
    pub fn with_check(mut self) -> Self {
        self.check = true;
        self
    }

    /// True when this is a 3D experiment.
    pub fn is_3d(&self) -> bool {
        self.nz > 1
    }

    /// Decomposition along the slab axis (Y in 2D, Z in 3D).
    pub fn slab(&self) -> Slab {
        let axis = if self.is_3d() { self.nz } else { self.ny };
        assert!(axis >= 3, "slab axis must have an interior");
        Slab::new(axis - 2, self.n_gpus)
    }

    /// Elements in one halo layer (a row in 2D, a plane in 3D).
    pub fn halo_elems(&self) -> usize {
        if self.is_3d() {
            self.nx * self.ny
        } else {
            self.nx
        }
    }

    /// Sanity checks; call before running a variant.
    pub fn validate(&self) {
        assert!(self.nx >= 3 && self.ny >= 3, "grid too small");
        if self.is_3d() {
            assert!(self.nz >= 3, "3D grid too small");
        }
        assert!(self.n_gpus >= 1, "need at least one GPU");
        let interior = if self.is_3d() {
            self.nz - 2
        } else {
            self.ny - 2
        };
        assert!(
            interior >= 2 * self.n_gpus,
            "each GPU needs at least 2 interior layers ({} interior / {} GPUs)",
            interior,
            self.n_gpus
        );
    }
}

/// 1D slab decomposition of `interior` layers over `n` parts.
///
/// Layers are distributed as evenly as possible; the first `interior % n`
/// parts get one extra layer.
#[derive(Debug, Clone, Copy)]
pub struct Slab {
    /// Interior layer count being distributed.
    pub interior: usize,
    /// Number of parts (GPUs).
    pub n: usize,
}

impl Slab {
    /// Create a decomposition.
    pub fn new(interior: usize, n: usize) -> Slab {
        assert!(
            n >= 1 && interior >= n,
            "cannot split {interior} layers over {n} parts"
        );
        Slab { interior, n }
    }

    /// Number of layers owned by part `pe`.
    pub fn layers(&self, pe: usize) -> usize {
        self.interior / self.n + usize::from(pe < self.interior % self.n)
    }

    /// First interior-layer index (0-based) owned by `pe`.
    pub fn start(&self, pe: usize) -> usize {
        pe * (self.interior / self.n) + pe.min(self.interior % self.n)
    }

    /// The largest per-part layer count (symmetric allocations are sized
    /// for the largest part).
    pub fn max_layers(&self) -> usize {
        self.layers(0)
    }
}

/// Per-PE workload arithmetic shared by all variants.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Elements per layer (nx in 2D, nx*ny in 3D).
    pub layer: u64,
    /// Owned layers on this PE.
    pub layers: u64,
    /// Bytes of global-memory traffic per point (post-cache).
    pub bytes_per_point: f64,
    /// Floating-point operations per point.
    pub flops_per_point: f64,
    /// Disable compute entirely (paper's "no compute" runs).
    pub no_compute: bool,
}

impl Workload {
    /// 2D5pt Jacobi: ~1 cached read + 1 write per point, 6 flops.
    pub fn jacobi2d(nx: usize, layers: usize, no_compute: bool) -> Workload {
        Workload {
            layer: nx as u64,
            layers: layers as u64,
            bytes_per_point: 16.0,
            flops_per_point: 6.0,
            no_compute,
        }
    }

    /// 3D7pt Jacobi: ~1 cached read + 1 write per point, 8 flops.
    pub fn jacobi3d(nx: usize, ny: usize, layers: usize, no_compute: bool) -> Workload {
        Workload {
            layer: (nx * ny) as u64,
            layers: layers as u64,
            bytes_per_point: 16.0,
            flops_per_point: 8.0,
            no_compute,
        }
    }

    /// Total points on this PE.
    pub fn total_points(&self) -> u64 {
        self.layer * self.layers
    }

    /// Points in ONE boundary region (first or last layer).
    pub fn boundary_points(&self) -> u64 {
        self.layer
    }

    /// Points in the inner region (all layers but the two boundary ones;
    /// zero when the chunk is ≤ 2 layers).
    pub fn inner_points(&self) -> u64 {
        self.total_points().saturating_sub(2 * self.layer)
    }

    /// Roofline duration of sweeping `points` using `fraction` of the device.
    ///
    /// `read_scale` scales the read traffic (PERKS caching); `penalty`
    /// multiplies the result (software-tiling inefficiency).
    pub fn sweep_dur(
        &self,
        cost: &CostModel,
        points: u64,
        fraction: f64,
        read_scale: f64,
        penalty: f64,
    ) -> SimDur {
        if self.no_compute || points == 0 {
            return SimDur::ZERO;
        }
        // bytes_per_point = 8 read + 8 write; scale only the read half.
        let write_b = 8.0;
        let read_b = (self.bytes_per_point - write_b) * read_scale;
        let bytes = (points as f64 * (read_b + write_b)).ceil() as u64;
        let flops = (points as f64 * self.flops_per_point).ceil() as u64;
        let base = cost.sweep(bytes, flops, fraction);
        base * penalty
    }

    /// True when the chunk oversaturates the co-resident thread capacity —
    /// the regime where cooperative kernels pay the tiling penalty.
    pub fn oversaturates(&self, coresident_threads: u64) -> bool {
        self.total_points() > coresident_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_distributes_evenly() {
        let s = Slab::new(254, 8);
        let total: usize = (0..8).map(|p| s.layers(p)).sum();
        assert_eq!(total, 254);
        // 254 = 8*31 + 6: first six parts get 32.
        assert_eq!(s.layers(0), 32);
        assert_eq!(s.layers(5), 32);
        assert_eq!(s.layers(6), 31);
        assert_eq!(s.start(0), 0);
        assert_eq!(s.start(1), 32);
        assert_eq!(s.start(7), 254 - 31);
        assert_eq!(s.max_layers(), 32);
    }

    #[test]
    fn slab_contiguity() {
        for n in 1..=8 {
            let s = Slab::new(100, n);
            let mut expected = 0;
            for pe in 0..n {
                assert_eq!(s.start(pe), expected);
                expected += s.layers(pe);
            }
            assert_eq!(expected, 100);
        }
    }

    #[test]
    fn workload_partitions() {
        let w = Workload::jacobi2d(256, 30, false);
        assert_eq!(w.total_points(), 256 * 30);
        assert_eq!(w.boundary_points(), 256);
        assert_eq!(w.inner_points(), 256 * 28);
    }

    #[test]
    fn tiny_chunk_inner_is_zero() {
        let w = Workload::jacobi2d(256, 2, false);
        assert_eq!(w.inner_points(), 0);
    }

    #[test]
    fn no_compute_zeroes_sweep() {
        let w = Workload::jacobi2d(256, 30, true);
        let c = CostModel::a100_hgx();
        assert_eq!(
            w.sweep_dur(&c, w.total_points(), 1.0, 1.0, 1.0),
            SimDur::ZERO
        );
    }

    #[test]
    fn perks_read_scale_reduces_time() {
        let w = Workload::jacobi2d(8192, 1024, false);
        let c = CostModel::a100_hgx();
        let plain = w.sweep_dur(&c, w.total_points(), 1.0, 1.0, 1.0);
        let perks = w.sweep_dur(
            &c,
            w.total_points(),
            1.0,
            1.0 - c.perks_cached_fraction,
            1.0,
        );
        assert!(perks < plain);
        let ratio = perks.as_nanos() as f64 / plain.as_nanos() as f64;
        // (8 write + 8*(1-cached) read) / 16 bytes.
        let expected = (8.0 + 8.0 * (1.0 - c.perks_cached_fraction)) / 16.0;
        assert!((ratio - expected).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn tiling_penalty_multiplies() {
        let w = Workload::jacobi2d(8192, 1024, false);
        let c = CostModel::a100_hgx();
        let plain = w.sweep_dur(&c, w.total_points(), 1.0, 1.0, 1.0);
        let tiled = w.sweep_dur(&c, w.total_points(), 1.0, 1.0, c.tiling_penalty);
        let ratio = tiled.as_nanos() as f64 / plain.as_nanos() as f64;
        assert!((ratio - c.tiling_penalty).abs() < 0.01);
    }

    #[test]
    fn oversaturation_threshold() {
        let w = Workload::jacobi2d(8192, 1024, false); // 8.4M points
        assert!(w.oversaturates(108 * 1024));
        let small = Workload::jacobi2d(256, 30, false);
        assert!(!small.oversaturates(108 * 1024));
    }

    #[test]
    fn config_validation() {
        let cfg = StencilConfig::square2d(256, 10, 8);
        cfg.validate();
        assert!(!cfg.is_3d());
        assert_eq!(cfg.halo_elems(), 256);
        let cfg3 = StencilConfig::cube3d(64, 64, 64, 10, 4);
        cfg3.validate();
        assert!(cfg3.is_3d());
        assert_eq!(cfg3.halo_elems(), 64 * 64);
    }

    #[test]
    #[should_panic(expected = "at least 2 interior layers")]
    fn too_many_gpus_rejected() {
        StencilConfig::square2d(8, 1, 8).validate();
    }
}

//! The distributed stencil domain: slab-decomposed ping-pong grids with
//! halo layers, the §4.1.1 halo signals, initialization, extraction and
//! in-place verification — dimension-agnostic via [`Geometry`].

use crate::config::{Slab, StencilConfig, Workload};
use crate::geometry::{geometry_of, Geometry};
use crate::grid;
use cpufree_core::{Halo, RunStats};
use gpu_sim::{CostModel, ExecMode, KernelCtx, Machine};
use nvshmem_sim::{ShmemWorld, SymArray, SymSignal};
use sim_des::{Category, SimDur, SimTime};
use std::sync::Arc;

/// The distributed domain: two generations of slab-local grids (one halo
/// layer each side) plus the per-PE halo signal cells.
pub struct Domain {
    /// The experiment configuration.
    pub cfg: StencilConfig,
    /// Stencil dimensionality specifics.
    pub geo: Arc<dyn Geometry>,
    /// Slab decomposition of the interior layers.
    pub slab: Slab,
    /// The simulated node.
    pub machine: Machine,
    /// NVSHMEM world (PE numbering + symmetric heap).
    pub world: ShmemWorld,
    /// Ping-pong generations; iteration `t` (1-based) reads
    /// `gen[(t+1)%2]` and writes `gen[t%2]`.
    pub gen: [SymArray; 2],
    /// Signal set by the LOW neighbor (pe-1) when it commits my low halo.
    pub sig_from_low: SymSignal,
    /// Signal set by the HIGH neighbor (pe+1) when it commits my high halo.
    pub sig_from_high: SymSignal,
}

impl Domain {
    /// Allocate and initialize the domain on a fresh machine with the
    /// default A100 cost model.
    pub fn new(cfg: &StencilConfig) -> Domain {
        let mut cost = cfg.cost.clone().unwrap_or_else(CostModel::a100_hgx);
        if let Some(topology) = cfg.topology {
            cost.topology = topology;
        }
        let machine = Machine::new(cfg.n_gpus, cost, cfg.exec);
        Domain::on_machine(cfg, machine)
    }

    /// Allocate on an existing machine (custom cost models in benches).
    pub fn on_machine(cfg: &StencilConfig, machine: Machine) -> Domain {
        cfg.validate();
        if cfg.check {
            machine.enable_checker();
        }
        if let Some(seed) = cfg.jitter {
            machine.set_wake_jitter(seed);
        }
        let geo = geometry_of(cfg);
        let slab = cfg.slab();
        let world = ShmemWorld::init(&machine);
        let local_len = (slab.max_layers() + 2) * geo.layer_elems();
        let gen = [
            world.malloc("grid.a", local_len),
            world.malloc("grid.b", local_len),
        ];
        let dom = Domain {
            cfg: cfg.clone(),
            geo,
            slab,
            machine,
            sig_from_low: world.signal(0),
            sig_from_high: world.signal(0),
            world,
            gen,
        };
        dom.initialize();
        dom
    }

    /// Fill both generations of every PE with its slab of the initial
    /// condition.
    fn initialize(&self) {
        if self.cfg.exec == ExecMode::TimingOnly {
            // Buffers are virtual: nothing to fill.
            return;
        }
        for pe in 0..self.cfg.n_gpus {
            // Local layer l (0..layers+2) maps to global layer start + l.
            let len = (self.layers(pe) + 2) * self.layer_elems();
            let [first, second] = &self.gen;
            let first = first.local(pe);
            first.with_mut(|d| self.geo.init_layers(self.slab.start(pe), &mut d[..len]));
            second.local(pe).copy_from(0, first, 0, len);
        }
    }

    /// Number of owned interior layers on `pe`.
    pub fn layers(&self, pe: usize) -> usize {
        self.slab.layers(pe)
    }

    /// Elements per layer.
    pub fn layer_elems(&self) -> usize {
        self.geo.layer_elems()
    }

    /// The per-PE workload arithmetic.
    pub fn workload(&self, pe: usize) -> Workload {
        self.geo.workload(self.layers(pe), self.cfg.no_compute)
    }

    /// Element offset of `pe`'s LOW halo layer (written by pe-1).
    pub fn low_halo_off(&self) -> usize {
        0
    }

    /// Element offset of `pe`'s HIGH halo layer (written by pe+1).
    pub fn high_halo_off(&self, pe: usize) -> usize {
        (self.layers(pe) + 1) * self.layer_elems()
    }

    /// `pe`'s boundary exchanges, low neighbor first: my first owned layer
    /// lands in pe-1's high halo and raises its `sig_from_high`, my last
    /// one in pe+1's low halo raising its `sig_from_low`.
    pub fn halos(&self, pe: usize) -> impl Iterator<Item = Halo<'_>> {
        let le = self.layer_elems();
        let low = (pe > 0).then(|| Halo {
            nb: pe - 1,
            dst: self.high_halo_off(pe - 1),
            src: le,
            sig_there: &self.sig_from_high,
            sig_here: &self.sig_from_low,
        });
        let high = (pe + 1 < self.cfg.n_gpus).then(|| Halo {
            nb: pe + 1,
            dst: self.low_halo_off(),
            src: self.layers(pe) * le,
            sig_there: &self.sig_from_low,
            sig_here: &self.sig_from_high,
        });
        low.into_iter().chain(high)
    }

    /// The generation read at iteration `t` (1-based).
    pub fn read_gen(&self, t: u64) -> &SymArray {
        &self.gen[((t + 1) % 2) as usize]
    }

    /// The generation written at iteration `t` (1-based).
    pub fn write_gen(&self, t: u64) -> &SymArray {
        &self.gen[(t % 2) as usize]
    }

    /// The generation holding the final field after all iterations.
    pub fn final_gen(&self) -> &SymArray {
        &self.gen[(self.cfg.iterations % 2) as usize]
    }

    /// `pe`'s owned interior layers in the final generation.
    pub fn owned(&self, pe: usize) -> Vec<f64> {
        let le = self.layer_elems();
        let mut out = vec![0.0; self.layers(pe) * le];
        self.final_gen().local(pe).read_slice(le, &mut out);
        out
    }

    /// Max abs deviation of the multi-GPU result from the sequential
    /// reference (only meaningful in [`ExecMode::Full`]); NaN if any owned
    /// cell differs by NaN.
    pub fn verify(&self) -> f64 {
        assert_eq!(
            self.cfg.exec,
            ExecMode::Full,
            "verification requires ExecMode::Full"
        );
        let reference = self.geo.reference(self.cfg.iterations);
        self.deviation(&reference, 0..self.cfg.n_gpus)
    }

    /// Max abs deviation of the owned layers of `pes` in the final
    /// generation from the global field `reference`, compared in place
    /// slab by slab; NaN if any cell differs by NaN. Layers no PE owns are
    /// fixed boundary, equal to the initial condition on both sides.
    pub(crate) fn deviation(&self, reference: &[f64], pes: impl IntoIterator<Item = usize>) -> f64 {
        let le = self.layer_elems();
        pes.into_iter().fold(0.0, |max, pe| {
            let (start, layers) = (self.slab.start(pe), self.layers(pe));
            let want = &reference[(start + 1) * le..(start + 1 + layers) * le];
            let dev = self
                .final_gen()
                .local(pe)
                .with(|got| grid::max_abs_diff(&got[le..(layers + 1) * le], want));
            grid::max_dev(max, dev)
        })
    }
}

/// Outcome of one variant run.
#[derive(Debug, Clone)]
pub struct Executed {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// Trace-derived measurements.
    pub stats: RunStats,
    /// Deviation from the sequential reference (`None` in timing-only runs).
    pub max_err: Option<f64>,
    /// Order-sensitive checksum of the final field (determinism tests).
    pub checksum: u64,
    /// The full span trace (timeline rendering, custom analyses).
    pub trace: sim_des::Trace,
    /// Checker report (`None` unless the config enabled `check`).
    pub check: Option<gpu_sim::CheckReport>,
}

impl Executed {
    /// Collect results after `machine.run()` returned `end`.
    pub fn collect(dom: &Domain, end: SimTime) -> Executed {
        let total = end.since(SimTime::ZERO);
        let trace = dom.machine.trace();
        let stats = RunStats::from_trace(&trace, total, dom.cfg.iterations);
        let max_err = (dom.cfg.exec == ExecMode::Full && !dom.cfg.no_compute).then(|| dom.verify());
        let mut checksum = 0u64;
        for pe in 0..dom.cfg.n_gpus {
            checksum = checksum
                .wrapping_mul(1_000_003)
                .wrapping_add(dom.final_gen().local(pe).checksum());
        }
        Executed {
            total,
            stats,
            max_err,
            checksum,
            trace,
            check: dom.machine.checker().map(|c| c.report()),
        }
    }

    /// Per-iteration time.
    pub fn per_iter(&self) -> SimDur {
        self.stats.per_iter
    }
}

/// Charge a compute phase and run the functional sweep when appropriate.
///
/// `points` at `fraction` of the device; `read_scale` models PERKS caching;
/// `penalty` models cooperative software tiling.
#[allow(clippy::too_many_arguments)]
pub fn compute_phase(
    k: &mut KernelCtx<'_>,
    w: &Workload,
    points: u64,
    fraction: f64,
    read_scale: f64,
    penalty: f64,
    label: &str,
    sweep: impl FnOnce(),
) {
    let dur = w.sweep_dur(k.cost(), points, fraction, read_scale, penalty);
    if dur > SimDur::ZERO {
        k.busy(Category::Compute, label, dur);
    }
    if k.exec_mode() == ExecMode::Full && !w.no_compute {
        sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Full-mode domain whose final generation holds exactly the
    /// sequential reference on every PE's owned layers: the state a
    /// correct run leaves behind.
    fn finished(cfg: &StencilConfig) -> Domain {
        let dom = Domain::new(cfg);
        let reference = dom.geo.reference(cfg.iterations);
        let le = dom.layer_elems();
        for pe in 0..cfg.n_gpus {
            let first = (dom.slab.start(pe) + 1) * le;
            let owned = &reference[first..first + dom.layers(pe) * le];
            dom.final_gen().local(pe).write_slice(le, owned);
        }
        dom
    }

    #[test]
    fn verify_compares_every_owned_cell_in_place() {
        // 2D with uneven slabs, and 3D with nx != ny.
        for cfg in [
            StencilConfig::square2d(13, 5, 3),
            StencilConfig::cube3d(7, 5, 10, 4, 3),
        ] {
            let dom = finished(&cfg);
            assert_eq!(dom.verify().to_bits(), 0.0f64.to_bits());
            let le = dom.layer_elems();
            // The last owned cell of the last PE, then the first of PE 0.
            let last = cfg.n_gpus - 1;
            let cell = (dom.layers(last) + 1) * le - 1;
            let was = dom.final_gen().local(last).get(cell);
            dom.final_gen().local(last).set(cell, was + 0.5);
            assert_eq!(dom.verify(), (was + 0.5 - was).abs());
            dom.final_gen().local(last).set(cell, was);
            dom.final_gen().local(0).set(le, f64::NAN);
            assert!(dom.verify().is_nan(), "a NaN in an owned slab must surface");
        }
    }
}

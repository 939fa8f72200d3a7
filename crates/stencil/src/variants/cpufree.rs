//! CPU-Free Jacobi (§4): one persistent cooperative kernel per device with
//! specialized thread blocks — two communication groups handling the
//! boundary layers and the halo semaphore protocol, the rest computing the
//! inner domain — plus the PERKS-cached variant and the two-kernel
//! "alternative design" ablation. Dimension-agnostic: 2D rows and 3D planes
//! both flow through [`Domain`].

use crate::config::StencilConfig;
use crate::domain::{compute_phase, Domain, Executed};
use cpufree_core::{
    launch_cpu_free, launch_cpu_free_dual, LocalRendezvous, TbAllocation, BLOCK_THREADS,
};
use gpu_sim::{BlockGroup, KernelCtx};
use nvshmem_sim::ShmemCtx;
use sim_des::{Cmp, SignalOp};
use std::sync::Arc;

/// Tuning of the persistent kernel's compute model.
#[derive(Debug, Clone, Copy)]
struct PersistentTuning {
    /// Scale on read traffic (PERKS caching: `1 - cached_fraction`).
    read_scale: f64,
    /// Software-tiling multiplier (1.0 when PERKS provides the tiling).
    penalty: f64,
}

/// CPU-Free: the paper's primary design.
pub fn run_cpu_free(cfg: &StencilConfig) -> Executed {
    run_persistent(cfg, false)
}

/// CPU-Free with the PERKS inner kernel: intermediate results cached in
/// registers/shared memory across iterations (reads of the cached fraction
/// skip global memory; halo layers stay uncached), and PERKS' own tiling
/// removes the software-tiling penalty.
pub fn run_cpu_free_perks(cfg: &StencilConfig) -> Executed {
    run_persistent(cfg, true)
}

/// Ablation: CPU-Free with the naive Listing-4.1 block split (exactly one
/// block per boundary group) instead of the §4.1.2 proportional formula.
pub fn run_cpu_free_fixed_split(cfg: &StencilConfig) -> Executed {
    run_persistent_with(cfg, false, SplitPolicy::FixedTwo)
}

/// How thread blocks are divided between boundary and inner groups.
#[derive(Debug, Clone, Copy)]
enum SplitPolicy {
    Proportional,
    FixedTwo,
}

impl SplitPolicy {
    fn allocate(self, tb_total: u64, inner: u64, boundary: u64) -> TbAllocation {
        match self {
            SplitPolicy::Proportional => TbAllocation::proportional(tb_total, inner, boundary),
            SplitPolicy::FixedTwo => TbAllocation::fixed_two(tb_total),
        }
    }
}

fn tuning(dom: &Domain, pe: usize, perks: bool, tb_total: u64) -> PersistentTuning {
    let cost = dom.machine.cost();
    let w = dom.workload(pe);
    if perks {
        PersistentTuning {
            read_scale: 1.0 - cost.perks_cached_fraction,
            penalty: 1.0,
        }
    } else {
        let threads = tb_total * u64::from(BLOCK_THREADS);
        let ppt = w.total_points() as f64 / threads as f64;
        PersistentTuning {
            read_scale: 1.0,
            penalty: if ppt > cost.tiling_threshold_ppt {
                cost.tiling_penalty
            } else {
                1.0
            },
        }
    }
}

fn run_persistent(cfg: &StencilConfig, perks: bool) -> Executed {
    run_persistent_with(cfg, perks, SplitPolicy::Proportional)
}

fn run_persistent_with(cfg: &StencilConfig, perks: bool, split: SplitPolicy) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    // One 1024-thread block per SM (shared-memory bound, as in the paper).
    let tb_total = dom.machine.spec().sm_count as u64;
    let dom_l = Arc::clone(&dom);
    let end = launch_cpu_free(
        &dom.machine.clone(),
        if perks { "cpufree_perks" } else { "cpufree" },
        move |pe| build_groups(Arc::clone(&dom_l), pe, tb_total, perks, split),
    )
    .expect("cpu-free run failed");
    Executed::collect(&dom, end)
}

/// Build the three specialized block groups of one PE's persistent kernel.
fn build_groups(
    dom: Arc<Domain>,
    pe: usize,
    tb_total: u64,
    perks: bool,
    split: SplitPolicy,
) -> Vec<BlockGroup> {
    let w = dom.workload(pe);
    let alloc = split.allocate(tb_total, w.inner_points(), w.boundary_points());
    let tune = tuning(&dom, pe, perks, tb_total);
    let b_frac = alloc.boundary_fraction();
    let i_frac = alloc.inner_fraction();

    let d_top = Arc::clone(&dom);
    let comm_low = BlockGroup::new("comm_low", alloc.boundary_tbs, move |k| {
        comm_group_body(k, &d_top, pe, Side::Low, b_frac, tune, Epilogue::Single);
    });
    let d_bot = Arc::clone(&dom);
    let comm_high = BlockGroup::new("comm_high", alloc.boundary_tbs, move |k| {
        comm_group_body(k, &d_bot, pe, Side::High, b_frac, tune, Epilogue::Single);
    });
    let d_in = Arc::clone(&dom);
    let inner = BlockGroup::new("inner", alloc.inner_tbs, move |k| {
        inner_group_body(k, &d_in, pe, i_frac, tune, None);
    });
    vec![comm_low, comm_high, inner]
}

/// Which neighbor a communication group talks to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// pe-1: owns my low halo; I compute/ship my FIRST owned layer.
    Low,
    /// pe+1: owns my high halo; I compute/ship my LAST owned layer.
    High,
}

/// How a comm group ends each iteration.
#[derive(Clone, Copy)]
enum Epilogue {
    /// Single-kernel design: one grid sync joins comm and inner groups.
    Single,
    /// Dual-kernel design, non-rendezvous group: two grid syncs bracket the
    /// other comm group's rendezvous with the compute kernel.
    DualPassive,
    /// Dual-kernel design, rendezvous-owning group: grid sync, rendezvous
    /// with the compute kernel, second grid sync.
    DualRendezvous(LocalRendezvous),
}

/// Listing 4.1's boundary thread block: ① wait for the neighbor's halo,
/// ② compute the boundary layer, ③ commit it to the neighbor's halo with
/// ④ a signal, then ⑤ join the grid barrier.
#[allow(clippy::too_many_arguments)]
fn comm_group_body(
    k: &mut KernelCtx<'_>,
    dom: &Domain,
    pe: usize,
    side: Side,
    fraction: f64,
    tune: PersistentTuning,
    epilogue: Epilogue,
) {
    let world = dom.world.clone();
    let mut sh = ShmemCtx::new(&world, k);
    let le = dom.layer_elems();
    let layers = dom.layers(pe);
    let w = dom.workload(pe);
    let halo = dom.halos(pe).find(|h| (h.nb < pe) == (side == Side::Low));
    let my_layer = match side {
        Side::Low => 1,
        Side::High => layers,
    };
    let checker = k.machine().checker();
    for t in 1..=dom.cfg.iterations {
        // ① Wait until the halo for this iteration's READ generation has
        // been committed by the neighbor (its put of iteration t-1).
        if let Some(h) = &halo {
            sh.signal_wait_until(k, h.sig_here, Cmp::Ge, t - 1);
        }
        // Conformance: one group per PE reports the committed iteration so
        // the checker can bound neighbor skew (must never exceed 1).
        if side == Side::Low {
            if let Some(chk) = &checker {
                chk.iteration(pe, t, &k.agent().name(), k.now());
            }
        }
        // ② Compute the boundary layer using the halo values.
        let geo = Arc::clone(&dom.geo);
        let read = dom.read_gen(t).local(pe).clone();
        let write = dom.write_gen(t).local(pe).clone();
        // Race detector: the boundary sweep reads the halo-adjacent band
        // (incl. the remotely-written halo layer) and writes its own layer.
        k.check_read(
            &read,
            (my_layer - 1) * le,
            (my_layer + 2) * le,
            "boundary read",
        );
        k.check_write(&write, my_layer * le, (my_layer + 1) * le, "boundary write");
        compute_phase(
            k,
            &w,
            w.boundary_points(),
            fraction.max(0.01),
            1.0, // halo-adjacent layers are excluded from PERKS caching
            tune.penalty,
            "boundary",
            || geo.sweep(&read, &write, (my_layer, my_layer)),
        );
        // ③+④ Commit the new layer into the neighbor's halo and signal.
        if let Some(h) = &halo {
            let wg = dom.write_gen(t);
            let (src, set) = (wg.local(pe), SignalOp::Set);
            sh.putmem_signal_nbi(k, wg, h.dst, src, h.src, le, h.sig_there, set, t, h.nb);
        }
        // ⑤ Synchronize before the next time step.
        match epilogue {
            Epilogue::Single => k.grid_sync(),
            Epilogue::DualPassive => {
                k.grid_sync();
                k.grid_sync();
            }
            Epilogue::DualRendezvous(rv) => {
                // First barrier: both boundary layers committed. Rendezvous:
                // the inner kernel finished this step. Second barrier:
                // release the passive comm group past the rendezvous.
                k.grid_sync();
                rv.sync_as_a(k, t);
                k.grid_sync();
            }
        }
    }
}

/// The inner-domain block group: pure compute, one sync point per step
/// (grid sync in the single-kernel design, rendezvous in the dual design).
fn inner_group_body(
    k: &mut KernelCtx<'_>,
    dom: &Domain,
    pe: usize,
    fraction: f64,
    tune: PersistentTuning,
    rendezvous: Option<LocalRendezvous>,
) {
    let layers = dom.layers(pe);
    let w = dom.workload(pe);
    let le = dom.layer_elems();
    for t in 1..=dom.cfg.iterations {
        let geo = Arc::clone(&dom.geo);
        let read = dom.read_gen(t).local(pe).clone();
        let write = dom.write_gen(t).local(pe).clone();
        if w.inner_points() > 0 {
            // Inner sweep: reads owned layers 1..=layers, writes 2..layers-1.
            k.check_read(&read, le, (layers + 1) * le, "inner read");
            k.check_write(&write, 2 * le, layers * le, "inner write");
        }
        compute_phase(
            k,
            &w,
            w.inner_points(),
            fraction.max(0.01),
            tune.read_scale,
            tune.penalty,
            "inner",
            || geo.sweep(&read, &write, (2, layers - 1)),
        );
        match rendezvous {
            None => k.grid_sync(),
            Some(rv) => rv.sync_as_b(k, t),
        }
    }
}

/// The §4 "alternative design": two co-resident persistent kernels per
/// device — boundary/communication and inner compute — in separate streams,
/// synchronized once per iteration through local device flags. Requires the
/// extra sync point between the local stream pair that the paper notes.
pub fn run_cpu_free_dual(cfg: &StencilConfig) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    let tb_total = dom.machine.spec().sm_count as u64;
    let dom_a = Arc::clone(&dom);
    let dom_b = Arc::clone(&dom);
    let end = launch_cpu_free_dual(
        &dom.machine.clone(),
        "cpufree_dual",
        move |pe, rv| {
            let dom = Arc::clone(&dom_a);
            let w = dom.workload(pe);
            let alloc = TbAllocation::proportional(tb_total, w.inner_points(), w.boundary_points());
            let tune = tuning(&dom, pe, false, tb_total);
            let b_frac = alloc.boundary_fraction();
            let d_low = Arc::clone(&dom);
            let d_high = Arc::clone(&dom);
            vec![
                BlockGroup::new("comm_low", alloc.boundary_tbs, move |k| {
                    comm_group_body(
                        k,
                        &d_low,
                        pe,
                        Side::Low,
                        b_frac,
                        tune,
                        Epilogue::DualPassive,
                    );
                }),
                BlockGroup::new("comm_high", alloc.boundary_tbs, move |k| {
                    comm_group_body(
                        k,
                        &d_high,
                        pe,
                        Side::High,
                        b_frac,
                        tune,
                        Epilogue::DualRendezvous(rv),
                    );
                }),
            ]
        },
        move |pe, rv| {
            let dom = Arc::clone(&dom_b);
            let w = dom.workload(pe);
            let alloc = TbAllocation::proportional(tb_total, w.inner_points(), w.boundary_points());
            let tune = tuning(&dom, pe, false, tb_total);
            let i_frac = alloc.inner_fraction();
            let d_in = Arc::clone(&dom);
            vec![BlockGroup::new("inner", alloc.inner_tbs, move |k| {
                inner_group_body(k, &d_in, pe, i_frac, tune, Some(rv));
            })]
        },
    )
    .expect("cpu-free dual run failed");
    Executed::collect(&dom, end)
}

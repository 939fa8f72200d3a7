//! The four CPU-controlled baselines from NVIDIA's multi-GPU programming
//! models repository, as characterized in §6.1.1 — dimension-agnostic
//! (2D5pt rows / 3D7pt planes both flow through [`Domain`]):
//!
//! * **Baseline Copy** — host-driven `cudaMemcpyAsync` halo exchange, no
//!   explicit boundary overlap;
//! * **Baseline Copy Overlap** — boundary layers computed in a separate
//!   stream concurrently with the inner domain;
//! * **Baseline P2P** — GPU-initiated direct load/store communication, but
//!   host-managed synchronization;
//! * **Baseline NVSHMEM** — device-side NVSHMEM communication in discrete
//!   kernels plus a dedicated per-iteration synchronization kernel, all
//!   launched by the CPU every time step.

use crate::config::StencilConfig;
use crate::domain::{compute_phase, Domain, Executed};
use gpu_sim::DevId;
use nvshmem_sim::ShmemCtx;
use sim_des::{Cmp, SignalOp};
use std::sync::Arc;

/// Baseline Copy: kernel over the whole chunk, then host-side async copies
/// of the boundary layers, then a host barrier. Fully serialized control
/// path.
pub fn run_copy(cfg: &StencilConfig) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    let n = cfg.n_gpus;
    let bar = dom.machine.barrier(n);
    for pe in 0..n {
        let d = Arc::clone(&dom);
        dom.machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let comp = host.create_stream(dev, "comp");
            let comm = host.create_stream(dev, "comm");
            let w = d.workload(pe);
            let layers = d.layers(pe);
            let le = d.layer_elems();
            for t in 1..=d.cfg.iterations {
                let geo = Arc::clone(&d.geo);
                let read = d.read_gen(t).local(pe).clone();
                let write = d.write_gen(t).local(pe).clone();
                host.launch(&comp, "jacobi", move |k| {
                    let pen = k.cost().discrete_cache_penalty;
                    compute_phase(k, &w, w.total_points(), 1.0, 1.0, pen, "sweep", || {
                        geo.sweep(&read, &write, (1, layers));
                    });
                });
                host.sync_stream(&comp);
                let wg = d.write_gen(t);
                for h in d.halos(pe) {
                    host.memcpy_async(&comm, wg.local(h.nb), h.dst, wg.local(pe), h.src, le);
                }
                host.sync_stream(&comm);
                host.host_barrier(bar, n);
            }
        });
    }
    let end = dom.machine.run().expect("baseline copy run failed");
    Executed::collect(&dom, end)
}

/// Baseline Copy Overlap: boundary layers in a `comm` stream concurrent
/// with the inner-domain kernel in a `comp` stream — the same explicit
/// overlap the CPU-Free version performs, but orchestrated by the host.
pub fn run_overlap(cfg: &StencilConfig) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    let n = cfg.n_gpus;
    let bar = dom.machine.barrier(n);
    for pe in 0..n {
        let d = Arc::clone(&dom);
        dom.machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let comp = host.create_stream(dev, "comp");
            let comm = host.create_stream(dev, "comm");
            let w = d.workload(pe);
            let layers = d.layers(pe);
            let le = d.layer_elems();
            let total = w.total_points() as f64;
            let inner_frac = (w.inner_points() as f64 / total).max(0.05);
            let bound_frac = ((2 * w.boundary_points()) as f64 / total).max(0.05);
            for t in 1..=d.cfg.iterations {
                let geo = Arc::clone(&d.geo);
                let read = d.read_gen(t).local(pe).clone();
                let write = d.write_gen(t).local(pe).clone();
                host.launch(&comp, "jacobi_inner", move |k| {
                    let pen = k.cost().discrete_cache_penalty;
                    compute_phase(
                        k,
                        &w,
                        w.inner_points(),
                        inner_frac,
                        1.0,
                        pen,
                        "inner",
                        || {
                            geo.sweep(&read, &write, (2, layers - 1));
                        },
                    );
                });
                let geo = Arc::clone(&d.geo);
                let read = d.read_gen(t).local(pe).clone();
                let write = d.write_gen(t).local(pe).clone();
                host.launch(&comm, "jacobi_boundary", move |k| {
                    let pen = k.cost().discrete_cache_penalty;
                    compute_phase(
                        k,
                        &w,
                        2 * w.boundary_points(),
                        bound_frac,
                        1.0,
                        pen,
                        "boundary",
                        || {
                            geo.sweep(&read, &write, (1, 1));
                            geo.sweep(&read, &write, (layers, layers));
                        },
                    );
                });
                let wg = d.write_gen(t);
                for h in d.halos(pe) {
                    host.memcpy_async(&comm, wg.local(h.nb), h.dst, wg.local(pe), h.src, le);
                }
                host.sync_stream(&comm);
                host.sync_stream(&comp);
                host.host_barrier(bar, n);
            }
        });
    }
    let end = dom.machine.run().expect("baseline overlap run failed");
    Executed::collect(&dom, end)
}

/// Baseline P2P: one kernel per iteration that computes and writes its
/// boundary layers straight into the neighbors' halos with direct peer
/// stores — GPU-initiated data movement, CPU-managed synchronization.
pub fn run_p2p(cfg: &StencilConfig) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    let n = cfg.n_gpus;
    let bar = dom.machine.barrier(n);
    for pe in 0..n {
        let d = Arc::clone(&dom);
        dom.machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let comp = host.create_stream(dev, "comp");
            let w = d.workload(pe);
            let layers = d.layers(pe);
            let le = d.layer_elems();
            for t in 1..=d.cfg.iterations {
                let d2 = Arc::clone(&d);
                host.launch(&comp, "jacobi_p2p", move |k| {
                    let geo = Arc::clone(&d2.geo);
                    let read = d2.read_gen(t).local(pe).clone();
                    let write = d2.write_gen(t).local(pe).clone();
                    // Boundary layers first so their stores can be issued.
                    let pen = k.cost().discrete_cache_penalty;
                    compute_phase(
                        k,
                        &w,
                        2 * w.boundary_points(),
                        1.0,
                        1.0,
                        pen,
                        "boundary",
                        || {
                            geo.sweep(&read, &write, (1, 1));
                            geo.sweep(&read, &write, (layers, layers));
                        },
                    );
                    let wg = d2.write_gen(t);
                    for h in d2.halos(pe) {
                        let label = if h.nb < pe {
                            "halo st -> low"
                        } else {
                            "halo st -> high"
                        };
                        k.p2p_copy(wg.local(h.nb), h.dst, wg.local(pe), h.src, le, label);
                    }
                    let geo = Arc::clone(&d2.geo);
                    let read = d2.read_gen(t).local(pe).clone();
                    let write = d2.write_gen(t).local(pe).clone();
                    compute_phase(k, &w, w.inner_points(), 1.0, 1.0, pen, "inner", || {
                        geo.sweep(&read, &write, (2, layers - 1));
                    });
                });
                host.sync_stream(&comp);
                host.host_barrier(bar, n);
            }
        });
    }
    let end = dom.machine.run().expect("baseline p2p run failed");
    Executed::collect(&dom, end)
}

/// Baseline NVSHMEM: discrete kernels use the same put-with-signal family
/// as the CPU-Free version, plus a dedicated synchronization kernel waiting
/// on neighbor signals — but the CPU still launches both every time step.
pub fn run_nvshmem(cfg: &StencilConfig) -> Executed {
    let dom = Arc::new(Domain::new(cfg));
    let n = cfg.n_gpus;
    for pe in 0..n {
        let d = Arc::clone(&dom);
        dom.machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let comp = host.create_stream(dev, "comp");
            let w = d.workload(pe);
            let layers = d.layers(pe);
            let le = d.layer_elems();
            for t in 1..=d.cfg.iterations {
                let d2 = Arc::clone(&d);
                host.launch(&comp, "jacobi_shmem", move |k| {
                    let world = d2.world.clone();
                    let mut sh = ShmemCtx::new(&world, k);
                    let geo = Arc::clone(&d2.geo);
                    let read = d2.read_gen(t).local(pe).clone();
                    let write = d2.write_gen(t).local(pe).clone();
                    let pen = k.cost().discrete_cache_penalty;
                    compute_phase(
                        k,
                        &w,
                        2 * w.boundary_points(),
                        1.0,
                        1.0,
                        pen,
                        "boundary",
                        || {
                            geo.sweep(&read, &write, (1, 1));
                            geo.sweep(&read, &write, (layers, layers));
                        },
                    );
                    let wg = d2.write_gen(t);
                    for h in d2.halos(pe) {
                        sh.putmem_signal_nbi(
                            k,
                            wg,
                            h.dst,
                            wg.local(pe),
                            h.src,
                            le,
                            h.sig_there,
                            SignalOp::Set,
                            t,
                            h.nb,
                        );
                    }
                    let geo = Arc::clone(&d2.geo);
                    let read = d2.read_gen(t).local(pe).clone();
                    let write = d2.write_gen(t).local(pe).clone();
                    compute_phase(k, &w, w.inner_points(), 1.0, 1.0, pen, "inner", || {
                        geo.sweep(&read, &write, (2, layers - 1));
                    });
                });
                let d2 = Arc::clone(&d);
                host.launch(&comp, "neighbor_sync", move |k| {
                    let world = d2.world.clone();
                    let mut sh = ShmemCtx::new(&world, k);
                    for h in d2.halos(pe) {
                        sh.signal_wait_until(k, h.sig_here, Cmp::Ge, t);
                    }
                });
                host.sync_stream(&comp);
            }
        });
    }
    let end = dom.machine.run().expect("baseline nvshmem run failed");
    Executed::collect(&dom, end)
}

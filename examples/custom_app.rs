//! Building a NEW application directly on the CPU-Free blueprint — not a
//! stencil: an iterative distributed **power-method step** (y = normalize(x)
//! broadcast around a ring), showing the model generalizes beyond halo
//! exchange: persistent kernels, specialized communication blocks, and
//! flag-semaphore synchronization with zero host involvement after launch.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use cpufree::prelude::*;
use std::sync::Arc;

fn main() {
    let n_pes = 4usize;
    let per_pe = 1024usize;
    let iterations = 30u64;

    let machine = Machine::new(n_pes, CostModel::a100_hgx(), ExecMode::Full);
    let world = ShmemWorld::init(&machine);

    // Symmetric cells: each PE exposes its partial sum to the ring.
    let partials = world.malloc("partials", 1);
    let sig = world.signal(0);
    // Every PE's local vector (ordinary device memory).
    let vectors: Vec<Buf> = (0..n_pes)
        .map(|pe| {
            let v = machine.alloc(DevId(pe), format!("x@{pe}"), per_pe);
            v.with_mut(|d| {
                for (i, x) in d.iter_mut().enumerate() {
                    *x = 1.0 + ((pe * per_pe + i) % 7) as f64;
                }
            });
            v
        })
        .collect();

    let world_l = world.clone();
    let partials_l = partials.clone();
    let vectors_l: Arc<Vec<Buf>> = Arc::new(vectors.clone());
    let end = launch_cpu_free(&machine, "power_step", move |pe| {
        let world = world_l.clone();
        let partials = partials_l.clone();
        let sig = sig.clone();
        let vectors = Arc::clone(&vectors_l);
        let right = (pe + 1) % n_pes;
        vec![
            // One comm group drives the ring reduction; the compute group
            // does the local vector work. grid.sync joins them per step.
            BlockGroup::new("ring", 4, move |k| {
                let mut sh = ShmemCtx::new(&world, k);
                let x = &vectors[pe];
                let scratch = k.machine().alloc(k.device(), "partial", 1);
                for t in 1..=iterations {
                    // Local partial sum of squares (small compute).
                    let local: f64 = x.with(|d| d.iter().map(|v| v * v).sum());
                    scratch.set(0, local);
                    // Accumulate around the ring: n-1 hops of put+signal.
                    sh.putmem_signal_nbi(
                        k,
                        &partials,
                        0,
                        &scratch,
                        0,
                        1,
                        &sig,
                        SignalOp::Set,
                        t,
                        right,
                    );
                    sh.signal_wait_until(k, &sig, Cmp::Ge, t);
                    k.grid_sync();
                }
            }),
            BlockGroup::new("compute", 100, move |k| {
                for _t in 1..=iterations {
                    // The bulk vector update, overlapped with the ring.
                    k.compute(
                        "axpy",
                        (per_pe * 16) as u64,
                        (per_pe * 2) as u64,
                        0.9,
                        || {},
                    );
                    k.grid_sync();
                }
            }),
        ]
    })
    .expect("custom app run");

    let stats = RunStats::from_trace(&machine.trace(), end.since(SimTime::ZERO), iterations);
    println!("distributed iterative app on the CPU-Free blueprint:");
    println!(
        "  {} PEs x {} elements, {} iterations",
        n_pes, per_pe, iterations
    );
    println!(
        "  total {} | per-iter {} | comm overlap {:.0}%",
        stats.total,
        stats.per_iter,
        stats.comm_overlap_ratio * 100.0
    );
    // Every PE received its left neighbor's final partial.
    for pe in 0..n_pes {
        let got = partials.local(pe).get(0);
        let left = (pe + n_pes - 1) % n_pes;
        let expect: f64 = vectors[left].with(|d| d.iter().map(|v| v * v).sum());
        assert_eq!(got, expect, "ring value mismatch at pe {pe}");
    }
    println!("  ring-communicated partial sums verified on every PE");
}

//! Cross-crate integration tests: the whole stack from the engine up
//! through the stencil workloads and the compiler, exercised together.

use cpufree::dace_sim::lower::{run_discrete, run_persistent};
use cpufree::dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use cpufree::dace_sim::transform::{gpu_transform, to_cpu_free};
use cpufree::prelude::*;

/// The headline claim, end to end: on communication-bound configurations
/// the CPU-Free model beats every CPU-controlled baseline, and the ordering
/// of baselines matches their degree of host involvement.
#[test]
fn variant_ordering_matches_host_involvement() {
    let cfg = StencilConfig::square2d(130, 30, 8).timing_only();
    let copy = Variant::BaselineCopy.run(&cfg).total;
    let overlap = Variant::BaselineOverlap.run(&cfg).total;
    let p2p = Variant::BaselineP2P.run(&cfg).total;
    let nvshmem = Variant::BaselineNvshmem.run(&cfg).total;
    let free = Variant::CpuFree.run(&cfg).total;
    // On tiny domains the overlap version's extra launch can offset its
    // hiding; the two memcpy baselines stay within a small band.
    assert!(
        overlap.as_nanos() as f64 <= copy.as_nanos() as f64 * 1.1,
        "overlap {overlap} vs copy {copy}"
    );
    assert!(p2p < copy, "p2p {p2p} vs copy {copy}");
    assert!(nvshmem < p2p, "nvshmem {nvshmem} vs p2p {p2p}");
    assert!(
        free.as_nanos() * 2 < nvshmem.as_nanos(),
        "free {free} vs nvshmem {nvshmem}"
    );
}

/// Weak scaling flatness: CPU-Free per-iteration time must stay within a
/// small factor from 2 to 8 GPUs while the fully CPU-controlled baseline
/// degrades (host barrier growth).
#[test]
fn cpu_free_scales_flat_baselines_degrade() {
    let per_iter = |v: Variant, g: usize| {
        let interior = 254 * g + 2;
        let cfg = StencilConfig {
            nx: 256,
            ny: interior,
            nz: 1,
            iterations: 30,
            n_gpus: g,
            exec: ExecMode::TimingOnly,
            no_compute: false,
            cost: None,
            topology: None,
            jitter: None,
            check: false,
        };
        v.run(&cfg).stats.per_iter.as_nanos() as f64
    };
    let free_growth = per_iter(Variant::CpuFree, 8) / per_iter(Variant::CpuFree, 2);
    let copy_growth = per_iter(Variant::BaselineCopy, 8) / per_iter(Variant::BaselineCopy, 2);
    assert!(free_growth < 1.25, "CPU-Free grew {free_growth}");
    assert!(copy_growth > free_growth, "baseline should degrade faster");
}

/// The stencil stack and the compiler stack implement the same protocol:
/// both CPU-Free paths beat both CPU-controlled paths on the same class of
/// communication-bound workload.
#[test]
fn handwritten_and_generated_cpu_free_agree_directionally() {
    // Handwritten.
    let cfg = StencilConfig::square2d(130, 10, 4).timing_only();
    let hand_base = Variant::BaselineNvshmem.run(&cfg).total;
    let hand_free = Variant::CpuFree.run(&cfg).total;
    // Generated.
    let setup = Jacobi2dSetup::new(64, 64, 10, 4);
    let mut b = setup.sdfg.clone();
    gpu_transform(&mut b);
    let gen_base = run_discrete(
        &b,
        4,
        &setup.user_bindings(),
        10,
        ExecMode::TimingOnly,
        &|pe, a| setup.init_local(pe, a),
    )
    .unwrap()
    .total;
    let mut f = setup.sdfg.clone();
    to_cpu_free(&mut f).unwrap();
    let gen_free = run_persistent(
        &f,
        4,
        &setup.user_bindings(),
        10,
        ExecMode::TimingOnly,
        &|pe, a| setup.init_local(pe, a),
    )
    .unwrap()
    .total;
    assert!(hand_free < hand_base);
    assert!(gen_free < gen_base);
}

/// Full determinism across the stack: identical checksums and virtual end
/// times on repeated runs of every layer.
#[test]
fn whole_stack_determinism() {
    let run_stencil = || {
        let cfg = StencilConfig::square2d(34, 7, 4);
        let e = Variant::CpuFree.run(&cfg);
        (e.total, e.checksum)
    };
    assert_eq!(run_stencil(), run_stencil());

    let run_dace = || {
        let setup = Jacobi1dSetup::new(16, 5, 4);
        let mut f = setup.sdfg.clone();
        to_cpu_free(&mut f).unwrap();
        let out = run_persistent(
            &f,
            4,
            &setup.user_bindings(),
            5,
            ExecMode::Full,
            &|pe, a| setup.init_local(pe, a),
        )
        .unwrap();
        (out.total, out.checksum)
    };
    assert_eq!(run_dace(), run_dace());
}

/// Failure injection: a broken signaling protocol must be *diagnosed* as a
/// deadlock by the engine, not hang the process.
#[test]
fn broken_protocol_is_diagnosed() {
    let machine = Machine::new(2, CostModel::a100_hgx(), ExecMode::Full);
    let world = ShmemWorld::init(&machine);
    let sig = world.signal(0);
    let w = world.clone();
    let result = launch_cpu_free(&machine, "broken", move |pe| {
        let w = w.clone();
        let sig = sig.clone();
        vec![BlockGroup::new("g", 1, move |k| {
            let mut sh = ShmemCtx::new(&w, k);
            if pe == 0 {
                // PE 0 waits for a signal PE 1 never sends (wrong value).
                sh.signal_wait_until(k, &sig, Cmp::Ge, 5);
            } else {
                sh.signal_op(k, &sig, SignalOp::Set, 1, 0);
            }
        })]
    });
    match result {
        Err(sim_des::SimError::Deadlock { blocked, .. }) => {
            assert!(blocked
                .iter()
                .any(|b| b.contains("rank0") || b.contains("broken")));
        }
        other => panic!("expected deadlock diagnosis, got {other:?}"),
    }
}

/// The co-residency limitation (§4.1.4) surfaces as a launch error through
/// the whole stack.
#[test]
fn oversubscribed_cooperative_launch_fails_loud() {
    let machine = Machine::new(1, CostModel::a100_hgx(), ExecMode::Full);
    let result = launch_cpu_free(&machine, "too_big", move |_pe| {
        vec![BlockGroup::new("huge", 10_000, |_k| {})]
    });
    assert!(matches!(result, Err(sim_des::SimError::AgentPanic { .. })));
}

/// Large paper-scale domains are sweepable in timing-only mode without
/// allocating their memory (virtual buffers).
#[test]
fn paper_scale_domains_run_in_timing_mode() {
    let cfg = StencilConfig {
        nx: 8192,
        ny: 8190 * 8 + 2, // 64k x 8k = 537M points: ~4 GB if materialized
        nz: 1,
        iterations: 3,
        n_gpus: 8,
        exec: ExecMode::TimingOnly,
        no_compute: false,
        cost: None,
        topology: None,
        jitter: None,
        check: false,
    };
    let out = Variant::CpuFree.run(&cfg);
    assert!(out.total.as_nanos() > 0);
    assert!(out.max_err.is_none(), "no verification in timing mode");
}

/// The TB-allocation ablation: the proportional split must not be slower
/// than the naive fixed split on boundary-heavy domains.
#[test]
fn proportional_split_helps_unbalanced_domains() {
    let cfg = StencilConfig::cube3d(514, 514, 34, 20, 4).timing_only();
    let prop = Variant::CpuFree.run(&cfg).total;
    let fixed = Variant::CpuFreeFixedSplit.run(&cfg).total;
    assert!(
        prop <= fixed,
        "proportional {prop} should be <= fixed {fixed}"
    );
}

/// RunStats overlap measurement is consistent with its parts.
#[test]
fn run_stats_internally_consistent() {
    let cfg = StencilConfig::square2d(258, 20, 4).timing_only();
    let ex = Variant::BaselineOverlap.run(&cfg);
    let s = &ex.stats;
    assert!(s.comm_overlap_ratio >= 0.0 && s.comm_overlap_ratio <= 1.0);
    assert!(s.exposed_comm <= s.comm_busy + s.sync_busy);
    assert!(s.per_iter.as_nanos() * 20 <= s.total.as_nanos() + 20);
}

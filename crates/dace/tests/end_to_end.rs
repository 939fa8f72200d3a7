//! End-to-end tests: build the distributed programs, transform them, run
//! both backends, and verify numerics against the sequential references.

use dace_sim::lower::{run_discrete, run_persistent, LowerError};
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{gpu_transform, to_cpu_free};
use gpu_sim::ExecMode;
use stencil_lab::grid::max_abs_diff;

#[test]
fn jacobi1d_discrete_matches_reference() {
    let setup = Jacobi1dSetup::new(12, 5, 4);
    let mut sdfg = setup.sdfg.clone();
    gpu_transform(&mut sdfg);
    let out = run_discrete(
        &sdfg,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let gathered = setup.gather(&out.finals["A"]);
    assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0);
}

#[test]
fn jacobi1d_cpu_free_matches_reference() {
    let setup = Jacobi1dSetup::new(12, 5, 4);
    let mut sdfg = setup.sdfg.clone();
    to_cpu_free(&mut sdfg).unwrap();
    let out = run_persistent(
        &sdfg,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let gathered = setup.gather(&out.finals["A"]);
    assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0);
}

#[test]
fn jacobi1d_both_backends_agree_bitwise() {
    let setup = Jacobi1dSetup::new(10, 7, 2);
    let mut base = setup.sdfg.clone();
    gpu_transform(&mut base);
    let d = run_discrete(
        &base,
        2,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let mut free = setup.sdfg.clone();
    to_cpu_free(&mut free).unwrap();
    let p = run_persistent(
        &free,
        2,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    assert_eq!(d.finals["A"], p.finals["A"]);
}

#[test]
fn jacobi2d_discrete_matches_reference() {
    let setup = Jacobi2dSetup::new(5, 7, 3, 4);
    let mut sdfg = setup.sdfg.clone();
    gpu_transform(&mut sdfg);
    let out = run_discrete(
        &sdfg,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let gathered = setup.gather(&out.finals["A"]);
    assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0);
}

#[test]
fn jacobi2d_cpu_free_matches_reference() {
    let setup = Jacobi2dSetup::new(5, 7, 3, 4);
    let mut sdfg = setup.sdfg.clone();
    to_cpu_free(&mut sdfg).unwrap();
    let out = run_persistent(
        &sdfg,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let gathered = setup.gather(&out.finals["A"]);
    assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0);
}

#[test]
fn jacobi2d_rectangular_grids_verify() {
    // n=2 (2x1) and n=8 (4x2): the paper's "rectangular split" cases.
    for n in [2usize, 8] {
        let setup = Jacobi2dSetup::new(4, 4, 2, n);
        let mut sdfg = setup.sdfg.clone();
        to_cpu_free(&mut sdfg).unwrap();
        let out = run_persistent(
            &sdfg,
            n,
            &setup.user_bindings(),
            setup.tsteps,
            ExecMode::Full,
            &|pe, arr| setup.init_local(pe, arr),
        )
        .unwrap();
        let gathered = setup.gather(&out.finals["A"]);
        assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0, "n={n}");
    }
}

#[test]
fn single_pe_runs_without_communication() {
    let setup = Jacobi1dSetup::new(16, 4, 1);
    let mut sdfg = setup.sdfg.clone();
    to_cpu_free(&mut sdfg).unwrap();
    let out = run_persistent(
        &sdfg,
        1,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let gathered = setup.gather(&out.finals["A"]);
    assert_eq!(max_abs_diff(&gathered, &setup.reference()), 0.0);
}

#[test]
fn cpu_free_beats_discrete_baseline_1d() {
    // Fig 6.3a's shape: the persistent/NVSHMEM version wins because the
    // baseline pays per-call stream syncs and MPI host latencies.
    let setup = Jacobi1dSetup::new(4096, 20, 4);
    let mut base = setup.sdfg.clone();
    gpu_transform(&mut base);
    let d = run_discrete(
        &base,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::TimingOnly,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    let mut free = setup.sdfg.clone();
    to_cpu_free(&mut free).unwrap();
    let p = run_persistent(
        &free,
        4,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::TimingOnly,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap();
    assert!(
        p.total < d.total,
        "CPU-Free {} should beat discrete {}",
        p.total,
        d.total
    );
}

#[test]
fn cpu_free_improvement_larger_in_2d_strided() {
    // Fig 6.3b: the strided east/west exchange makes the baseline far
    // worse (MPI_Type_vector on the host path), so the 2D improvement
    // exceeds the 1D improvement.
    let t = 6u64;
    let s1 = Jacobi1dSetup::new(4096, t, 4);
    let mut b1 = s1.sdfg.clone();
    gpu_transform(&mut b1);
    let d1 = run_discrete(
        &b1,
        4,
        &s1.user_bindings(),
        t,
        ExecMode::TimingOnly,
        &|pe, a| s1.init_local(pe, a),
    )
    .unwrap();
    let mut f1 = s1.sdfg.clone();
    to_cpu_free(&mut f1).unwrap();
    let p1 = run_persistent(
        &f1,
        4,
        &s1.user_bindings(),
        t,
        ExecMode::TimingOnly,
        &|pe, a| s1.init_local(pe, a),
    )
    .unwrap();

    let s2 = Jacobi2dSetup::new(256, 256, t, 4);
    let mut b2 = s2.sdfg.clone();
    gpu_transform(&mut b2);
    let d2 = run_discrete(
        &b2,
        4,
        &s2.user_bindings(),
        t,
        ExecMode::TimingOnly,
        &|pe, a| s2.init_local(pe, a),
    )
    .unwrap();
    let mut f2 = s2.sdfg.clone();
    to_cpu_free(&mut f2).unwrap();
    let p2 = run_persistent(
        &f2,
        4,
        &s2.user_bindings(),
        t,
        ExecMode::TimingOnly,
        &|pe, a| s2.init_local(pe, a),
    )
    .unwrap();

    let imp1 = 1.0 - p1.total.as_nanos() as f64 / d1.total.as_nanos() as f64;
    let imp2 = 1.0 - p2.total.as_nanos() as f64 / d2.total.as_nanos() as f64;
    assert!(
        imp2 > imp1,
        "2D improvement {imp2:.2} should exceed 1D improvement {imp1:.2}"
    );
}

#[test]
fn persistent_rejects_untransformed_program() {
    let setup = Jacobi1dSetup::new(8, 1, 2);
    let mut sdfg = setup.sdfg.clone();
    gpu_transform(&mut sdfg);
    // MPI nodes still present: persistent lowering must refuse.
    let err = run_persistent(
        &sdfg,
        2,
        &setup.user_bindings(),
        1,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        LowerError::MpiInPersistent | LowerError::MapNotScheduled(_)
    ));
}

#[test]
fn persistent_requires_symmetric_put_targets() {
    use dace_sim::transform::{gpu_persistent_kernel, mpi_to_nvshmem};
    let setup = Jacobi1dSetup::new(8, 1, 2);
    let mut sdfg = setup.sdfg.clone();
    gpu_transform(&mut sdfg);
    mpi_to_nvshmem(&mut sdfg).unwrap();
    // Deliberately skip NVSHMEMArray.
    gpu_persistent_kernel(&mut sdfg).unwrap();
    let err = run_persistent(
        &sdfg,
        2,
        &setup.user_bindings(),
        1,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap_err();
    assert!(matches!(err, LowerError::PutTargetNotSymmetric(_)));
}

#[test]
fn discrete_rejects_sequential_maps() {
    let setup = Jacobi1dSetup::new(8, 1, 2);
    let err = run_discrete(
        &setup.sdfg,
        2,
        &setup.user_bindings(),
        1,
        ExecMode::Full,
        &|pe, arr| setup.init_local(pe, arr),
    )
    .unwrap_err();
    assert!(matches!(err, LowerError::MapNotScheduled(_)));
}

#[test]
fn determinism_of_both_backends() {
    let setup = Jacobi2dSetup::new(4, 4, 3, 4);
    let mut free = setup.sdfg.clone();
    to_cpu_free(&mut free).unwrap();
    let run = || {
        run_persistent(
            &free,
            4,
            &setup.user_bindings(),
            setup.tsteps,
            ExecMode::Full,
            &|pe, arr| setup.init_local(pe, arr),
        )
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.total, b.total);
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn block_granularity_verifies_and_is_not_slower() {
    use dace_sim::transform::{
        gpu_persistent_kernel, mpi_to_nvshmem_with, nvshmem_array, PutGranularity,
    };
    let setup = Jacobi2dSetup::new(6, 6, 3, 4);
    let build = |g: PutGranularity| {
        let mut sdfg = setup.sdfg.clone();
        gpu_transform(&mut sdfg);
        mpi_to_nvshmem_with(&mut sdfg, g).unwrap();
        nvshmem_array(&mut sdfg);
        gpu_persistent_kernel(&mut sdfg).unwrap();
        run_persistent(
            &sdfg,
            4,
            &setup.user_bindings(),
            setup.tsteps,
            ExecMode::Full,
            &|pe, a| setup.init_local(pe, a),
        )
        .unwrap()
    };
    let thread = build(PutGranularity::SingleThread);
    let block = build(PutGranularity::Block);
    // Identical numerics.
    assert_eq!(thread.finals["A"], block.finals["A"]);
    let gathered = setup.gather(&block.finals["A"]);
    let reference = setup.reference();
    assert_eq!(max_abs_diff(&gathered, &reference), 0.0);
    // Cooperative transfers are never slower.
    assert!(block.total <= thread.total);
}

#[test]
fn put_mapped_node_transfers_correctly() {
    use dace_sim::expr::{Cond, CondOp, Expr};
    use dace_sim::ir::*;
    // Hand-built program: PE0 sends 4 elements to PE1's halo via the
    // Mapped single-element specialization.
    let sdfg = Sdfg {
        name: "mapped".into(),
        symbols: vec![],
        derived: vec![],
        arrays: vec![ArrayDecl {
            name: "A".into(),
            shape: vec![Expr::c(8)],
            storage: Storage::GpuNvshmem,
        }],
        body: vec![Cf::Loop {
            var: "t".into(),
            start: Expr::c(1),
            end: Expr::c(1),
            body: vec![Cf::State(State {
                name: "put".into(),
                ops: vec![GuardedOp::when(
                    Cond::new(Expr::s("rank"), CondOp::Eq, Expr::c(0)),
                    Op::Lib(LibNode::PutMapped {
                        dst: DataRef::new("A", vec![DimRange::range(Expr::c(4), Expr::c(4))]),
                        src: DataRef::new("A", vec![DimRange::range(Expr::c(0), Expr::c(4))]),
                        pe: Expr::c(1),
                    }),
                )],
            })],
            persistent: true,
        }],
    };
    let out = run_persistent(
        &sdfg,
        2,
        &Default::default(),
        1,
        ExecMode::Full,
        &|pe, _| {
            if pe == 0 {
                vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
            } else {
                vec![0.0; 8]
            }
        },
    )
    .unwrap();
    assert_eq!(&out.finals["A"][1][4..8], &[1.0, 2.0, 3.0, 4.0]);
}

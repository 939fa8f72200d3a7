//! The compiler path end-to-end: build the distributed Jacobi-2D program
//! the way the DaCe Python frontend would, print its SDFG, apply the
//! CPU-Free transformation pipeline, and run both backends — verifying that
//! the generated CPU-Free code computes the identical field.
//!
//! ```text
//! cargo run --release --example dace_frontend
//! ```

use cpufree::dace_sim::lower::{run_discrete, run_persistent};
use cpufree::dace_sim::programs::Jacobi2dSetup;
use cpufree::dace_sim::transform::{gpu_transform, to_cpu_free};
use cpufree::dace_sim::verify::verify_sdfg;
use cpufree::dace_sim::Sdfg;
use cpufree::prelude::*;
use cpufree::stencil_lab::grid::max_abs_diff;

/// Statically verify `sdfg` and print the outcome; a diagnostic here means
/// the program (or a transformation) broke the CPU-Free protocol, so don't
/// lower it.
fn verify_or_die(label: &str, sdfg: &Sdfg, setup: &Jacobi2dSetup) {
    let report = verify_sdfg(sdfg, setup.n_pes, &setup.user_bindings());
    if report.clean() {
        println!("static verification [{label}]: clean");
    } else {
        eprintln!("static verification [{label}] FAILED:\n{report}");
        std::process::exit(1);
    }
}

fn main() {
    let setup = Jacobi2dSetup::new(6, 8, 4, 4);
    println!(
        "baseline program (as built by the frontend):\n{}\n",
        setup.sdfg
    );
    verify_or_die("frontend", &setup.sdfg, &setup);

    // ---- CPU-controlled path: just port to GPU (GPUTransform) ----
    let mut baseline = setup.sdfg.clone();
    gpu_transform(&mut baseline);
    verify_or_die("gpu_transform", &baseline, &setup);
    let b = run_discrete(
        &baseline,
        setup.n_pes,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, a| setup.init_local(pe, a),
    )
    .expect("discrete run");

    // ---- CPU-Free path: MPI→NVSHMEM, NVSHMEMArray, GPUPersistentKernel ----
    let mut cpufree = setup.sdfg.clone();
    to_cpu_free(&mut cpufree).expect("transformation pipeline");
    println!("after the CPU-Free pipeline:\n{cpufree}\n");
    verify_or_die("to_cpu_free", &cpufree, &setup);
    let c = run_persistent(
        &cpufree,
        setup.n_pes,
        &setup.user_bindings(),
        setup.tsteps,
        ExecMode::Full,
        &|pe, a| setup.init_local(pe, a),
    )
    .expect("persistent run");

    // ---- identical numerics ----
    let gathered_b = setup.gather(&b.finals["A"]);
    let gathered_c = setup.gather(&c.finals["A"]);
    let reference = setup.reference();
    let err_b = max_abs_diff(&gathered_b, &reference);
    let err_c = max_abs_diff(&gathered_c, &reference);
    println!("max |error| vs sequential reference: baseline {err_b:e}, cpu-free {err_c:e}");
    assert_eq!(err_b, 0.0);
    assert_eq!(err_c, 0.0);

    // ---- performance ----
    println!(
        "\nvirtual time ({} ranks, {} steps, {}x{} per rank):",
        setup.n_pes, setup.tsteps, setup.rows, setup.cols
    );
    println!("  MPI baseline (discrete kernels):  {}", b.total);
    println!("  generated CPU-Free (persistent):  {}", c.total);
    println!(
        "  improvement: {:.1}%",
        RunStats::speedup_pct(b.total, c.total)
    );
}
